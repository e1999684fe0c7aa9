"""Surface normal estimation as a linear function of node position.

A node's normal is the unit cross product (p_i - p_k) x (p_k - p_l) of
its position with a support pair (k, l) drawn from the opposite class.
That cross product is affine in p_i:

    (p_i - p_k) x (p_k - p_l) = C p_i + d,
    C = skew(p_l - p_k),  d = p_k x p_l,

where skew(v) is the matrix with skew(v) @ x == v x x. Dividing by the
norm at a chosen linearization point gives n_i ~ A p_i + b. Signs agree
along a spanning forest of the class's own k-NN graph. A class's models
are kept as stacked arrays (see affine_normals).

Support pairs are chosen for a whole class at once (support_pairs), one
vectorized step per candidate rank; nodes left unpaired are retried
together on the k, 2k, then 4k nearest nodes of the other class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree

from .graph import SpatialIndex, WeightedGraph, build_knn_graph

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
    graph: WeightedGraph | None  # class k-NN graph on the m nodes; None when m == 0


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


def support_pairs(
    p_i: np.ndarray,
    cand: np.ndarray,
    positions: np.ndarray,
    tol: float = DEFAULT_COLLINEARITY_TOL,
) -> np.ndarray:
    """First non-collinear support pair (k, l) of each row, or (-1, -1).

    Row t has node position p_i[t] and candidate ids cand[t], padded with
    -1. Each row's candidates are ordered by (distance to p_i[t], id); k
    walks them nearest-first, and for each k, l is the nearest other
    candidate whose triple passes the collinearity test
    ||(p_i - p_k) x (p_k - p_l)|| > tol * ||p_i - p_k|| * ||p_k - p_l||.
    If no l passes, k advances. A row with fewer than two valid
    candidates gets no pair. The work is one vectorized step per rank of
    k, over the rows still unpaired.
    """
    p_i = np.asarray(p_i, dtype=np.float64)
    cand = np.asarray(cand, dtype=np.int64)
    real = cand >= 0
    pos = positions[np.where(real, cand, 0)]
    dist = np.where(real, np.linalg.norm(pos - p_i[:, None], axis=2), np.inf)
    order = np.lexsort((cand, dist), axis=1)
    cand = np.take_along_axis(cand, order, axis=1)
    real = np.take_along_axis(real, order, axis=1)
    pos = np.take_along_axis(pos, order[:, :, None], axis=1)

    pairs = np.full((p_i.shape[0], 2), -1, dtype=np.int64)
    for a in range(cand.shape[1]):
        rows = np.flatnonzero((pairs[:, 0] < 0) & real[:, a])
        if rows.size == 0:
            continue
        p_k = pos[rows, a]
        to_k = p_i[rows] - p_k
        to_l = p_k[:, None] - pos[rows]
        cross = np.cross(to_k[:, None], to_l)
        scale = np.linalg.norm(to_k, axis=1)[:, None] * np.linalg.norm(to_l, axis=2)
        # l == k fails the test by itself: its cross product is exactly 0.
        ok = (np.linalg.norm(cross, axis=2) > tol * scale) & real[rows]
        hit = ok.any(axis=1)
        rows = rows[hit]
        pairs[rows, 0] = cand[rows, a]
        pairs[rows, 1] = cand[rows, np.argmax(ok[hit], axis=1)]
    return pairs


def _padded(row: np.ndarray, ids: np.ndarray, m: int) -> np.ndarray:
    """(m, K) array of ids grouped by ascending row, padded with -1."""
    counts = np.bincount(row, minlength=m)
    out = np.full((m, counts.max(initial=0)), -1, dtype=np.int64)
    out[row, np.arange(row.size) - (np.cumsum(counts) - counts)[row]] = ids
    return out


def orient_normals(positions: np.ndarray, normals: np.ndarray, graph: WeightedGraph) -> np.ndarray:
    """Sign choices (+1/-1) making normals of nodes adjacent in graph agree.

    Takes a minimum spanning forest of graph's edges at cost
    max(1 - |n_i . n_j|, tiny) (scipy.sparse.csgraph; exactly tied costs
    follow scipy's tie rule), roots each tree at its maximum-z node (smaller
    index on ties) with the root's normal signed toward non-negative z, and
    gives every tree edge (alpha_i n_i) . (alpha_j n_j) >= 0: a node keeps
    its root's sign iff its tree path crosses an even number of edges with
    dot < 0. The tiny floor keeps zero-cost edges, which scipy would drop,
    without reordering costs: the smallest positive 1 - |dot| is ~1.1e-16.
    """
    positions = np.asarray(positions, dtype=np.float64)
    normals = np.asarray(normals, dtype=np.float64)
    n = positions.shape[0]
    if normals.shape != (n, 3) or graph.node_count != n:
        raise ValueError(f"normals shape {normals.shape} or graph does not match {n} nodes")

    adj = graph.adjacency
    rows = np.repeat(np.arange(n), np.diff(adj.indptr))
    dots = np.einsum("ij,ij->i", normals[rows], normals[adj.indices])
    costs = csr_matrix((np.maximum(1.0 - np.abs(dots), np.finfo(np.float64).tiny),
                        adj.indices, adj.indptr), shape=(n, n))
    forest = minimum_spanning_tree(costs)
    _, labels = connected_components(forest, directed=False)
    by_tree = np.lexsort((-positions[:, 2], labels))  # highest z first, then smaller index
    roots = by_tree[np.unique(labels[by_tree], return_index=True)[1]]
    # The parity is read off the forest's signed double cover on nodes u and u + n: an
    # agreeing tree edge joins u - v and u+n - v+n, a disagreeing one u - v+n and u+n - v.
    u, v = forest.nonzero()
    flip = n * (np.einsum("ij,ij->i", normals[u], normals[v]) < 0)
    cover = csr_matrix((np.ones(2 * u.size), (np.concatenate([u, u + n]),
                                              np.concatenate([v + flip, v + n - flip]))),
                       shape=(2 * n, 2 * n))
    _, side = connected_components(cover, directed=False)
    up = np.where(normals[roots, 2] >= 0, 1, -1).astype(np.int8)[labels]
    return np.where(side[:n] == side[roots[labels]], up, -up)


def estimate_normal_field(
    positions: np.ndarray,
    graph: WeightedGraph,
    assignment: np.ndarray,
    opt_class: int,
    k: int,
    sigma_p: float,
    tol: float = DEFAULT_COLLINEARITY_TOL,
) -> tuple[NormalField, list[int]]:
    """Support pairs, class graph, oriented normals and linearizations for one class.

    positions are the current coordinates of all nodes; graph is the
    original k-NN graph (fixed topology); assignment maps nodes to
    classes. For each node of opt_class the candidate pool is its graph
    neighbors of the other class, taken from the rows of graph.adjacency;
    support_pairs picks every node's pair from these pools in one batched
    call. The nodes left without a pair (pool too small or fully
    collinear) are retried together on the k, then 2k, then 4k nearest
    nodes of the other class (capped at its size). Nodes with no valid
    pair are skipped and returned, ascending, in the failure list.

    The paired nodes' class graph, which orients their normals, is their k-NN
    graph (k capped at their count - 1, bandwidth sigma_p), or edgeless when
    fewer than 2 are paired or all of them coincide.
    """
    positions = np.asarray(positions, dtype=np.float64)
    assignment = np.asarray(assignment)
    opt_ids = np.flatnonzero(assignment == opt_class)
    other_ids = np.flatnonzero(assignment != opt_class)
    p_opt = positions[opt_ids]

    rows = graph.adjacency[opt_ids]
    row_of = np.repeat(np.arange(opt_ids.size), np.diff(rows.indptr))
    keep = assignment[rows.indices] != opt_class
    pairs = support_pairs(p_opt, _padded(row_of[keep], rows.indices[keep], opt_ids.size),
                          positions, tol)

    miss = np.flatnonzero(pairs[:, 0] < 0)
    if miss.size and other_ids.size >= 2:
        other_index = SpatialIndex(positions[other_ids])
        for kk in (k, 2 * k, 4 * k):
            kk = min(kk, other_ids.size)
            cand = other_ids[other_index.query_knn(p_opt[miss], kk)]
            pairs[miss] = support_pairs(p_opt[miss], cand, positions, tol)
            miss = miss[pairs[miss, 0] < 0]
            if miss.size == 0 or kk == other_ids.size:
                break

    ok = pairs[:, 0] >= 0
    failed = opt_ids[~ok].tolist()
    if not ok.any():
        empty = np.zeros((0, 3))
        return NormalField(np.array([], dtype=np.int64), empty, np.zeros((0, 3, 3)),
                           empty, np.zeros(0, dtype=np.int8),
                           np.zeros((0, 2), dtype=np.int64), None), failed

    ids_arr, pairs_arr = opt_ids[ok], pairs[ok]
    pi = positions[ids_arr]
    raw, _, _, A, b = affine_normals(pi, positions[pairs_arr[:, 0]], positions[pairs_arr[:, 1]])
    class_graph = (build_knn_graph(pi, min(k, ids_arr.size - 1), sigma_p)
                   if ids_arr.size >= 2 and not np.all(pi == pi[0])
                   else WeightedGraph(ids_arr.size, [], [], []))
    alphas = orient_normals(pi, raw, class_graph)
    A *= alphas[:, None, None]
    b *= alphas[:, None]
    return NormalField(ids_arr, raw * alphas[:, None], A, b, alphas, pairs_arr,
                       class_graph), failed


def normal_field_lines(field: NormalField):
    """Yield 'node nx ny nz alpha k l' debug lines."""
    for t, i in enumerate(field.ids):
        nx, ny, nz = field.normals[t]
        k, l = field.pairs[t]
        yield f"{i} {nx:.17g} {ny:.17g} {nz:.17g} {field.alpha[t]:+d} {k} {l}"
