"""Weighted k-NN graphs over point clouds.

Edge weights use a Gaussian kernel on Euclidean distance,
w_ij = exp(-||p_i - p_j||^2 / sigma_p^2), so weights fall in (0, 1].
Neighbor queries are exact (kd-tree with full backtracking) and distance
ties are broken by the smaller point index, which makes the graph
independent of point insertion order.

build_knn_graph is the one graph builder: it makes the union-symmetrized
k-NN pattern and its kernel weights, for the cloud's graph and for each
pass's class graph. A WeightedGraph keeps its edges as canonical arrays
plus a cached symmetric CSR adjacency, which callers slice by row, walk
for the window layout or hand to scipy.sparse.csgraph; subgraph restricts
it to one window's points. edge_list_lines is the inspect dump of a graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree

from .errors import DegenerateCloudError


class SpatialIndex:
    """Exact nearest-neighbor index with deterministic tie handling.

    Wraps a kd-tree; candidate sets are re-sorted by (distance, index) so
    exact distance ties always resolve to the smaller point index.
    """

    _PAD = 4

    def __init__(self, points: np.ndarray):
        points = np.ascontiguousarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError(f"points must have shape (N, 3), got {points.shape}")
        self.points = points
        self.n = points.shape[0]
        self._tree = cKDTree(points)

    def query_knn(self, targets: np.ndarray, k: int, exclude_self: bool = False) -> np.ndarray:
        """Return (m, k) neighbor indices sorted by (distance, index).

        With exclude_self=True, targets must be the indexed points
        themselves and each row drops its own index.
        """
        targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
        need = k + 1 if exclude_self else k
        if need > self.n:
            raise ValueError(f"requested {need} neighbors from {self.n} points")
        kq = min(self.n, need + self._PAD)
        # k as a rank sequence keeps the result 2-D even for a single rank.
        dist, idx = self._tree.query(targets, k=np.arange(1, kq + 1))
        # Expand any row whose candidate list may truncate a tie run at the
        # cutoff distance; rare, so a per-row loop is fine.
        while kq < self.n:
            cutoff = dist[:, need - 1]
            unsafe = dist[:, -1] <= cutoff
            if not np.any(unsafe):
                break
            kq = min(self.n, kq * 2)
            d2, i2 = self._tree.query(targets[unsafe], k=np.arange(1, kq + 1))
            pad_d = np.full((dist.shape[0], kq), np.inf)
            pad_i = np.zeros((dist.shape[0], kq), dtype=idx.dtype)
            pad_d[:, : dist.shape[1]] = dist
            pad_i[:, : idx.shape[1]] = idx
            pad_d[unsafe] = d2
            pad_i[unsafe] = i2
            dist, idx = pad_d, pad_i
        # (distance, index) order in every row; rows without exact ties keep
        # the tree's order.
        idx = np.take_along_axis(idx, np.lexsort((idx, dist), axis=1), axis=1)
        if exclude_self:
            # A stable sort on "is self" moves each row's own index to the
            # back and keeps every other entry in (distance, index) order.
            own = idx == np.arange(idx.shape[0])[:, None]
            idx = np.take_along_axis(idx, np.argsort(own, axis=1, kind="stable"), axis=1)
        return idx[:, :k].astype(np.int64)

    def nearest(self, targets: np.ndarray) -> np.ndarray:
        """Index of the nearest indexed point for each target (ties: smaller index)."""
        return self.query_knn(targets, 1)[:, 0]


@dataclass(eq=False)
class WeightedGraph:
    """Undirected weighted graph, canonical edge storage.

    Edges are kept as parallel arrays (ei, ej, w) with ei < ej, sorted
    lexicographically, no duplicates, no self-loops, weights in (0, 1].
    Treated as immutable after construction.
    """

    node_count: int
    ei: np.ndarray
    ej: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        if self.node_count < 1:
            raise ValueError("graph needs at least one node")
        ei = np.asarray(self.ei, dtype=np.int64).ravel()
        ej = np.asarray(self.ej, dtype=np.int64).ravel()
        w = np.asarray(self.w, dtype=np.float64).ravel()
        if not (ei.shape == ej.shape == w.shape):
            raise ValueError("edge arrays must have equal length")
        if ei.size:
            lo = np.minimum(ei, ej)
            hi = np.maximum(ei, ej)
            if np.any(lo == hi):
                raise ValueError("self-loops are not allowed")
            if lo.min() < 0 or hi.max() >= self.node_count:
                raise ValueError("edge endpoint out of range")
            order = np.lexsort((hi, lo))
            lo, hi, w = lo[order], hi[order], w[order]
            key = lo * self.node_count + hi
            if np.any(np.diff(key) == 0):
                raise ValueError("duplicate edges are not allowed")
            if np.any(w <= 0) or np.any(w > 1):
                raise ValueError("edge weights must lie in (0, 1]")
            ei, ej = lo, hi
        self.ei, self.ej, self.w = ei, ej, w

    @property
    def edge_count(self) -> int:
        return self.ei.size

    def subgraph(self, nodes: np.ndarray) -> WeightedGraph:
        """The graph induced on ascending node ids, node nodes[t] relabelled t.

        On every node it is the graph itself, so no copy is made.
        """
        if nodes.size == self.node_count:
            return self
        local = np.full(self.node_count, -1, dtype=np.int64)
        local[nodes] = np.arange(nodes.size)
        keep = (local[self.ei] >= 0) & (local[self.ej] >= 0)
        return WeightedGraph(nodes.size, local[self.ei[keep]], local[self.ej[keep]],
                             self.w[keep])

    @cached_property
    def adjacency(self) -> csr_matrix:
        """Symmetric weighted adjacency: CSR, sorted indices, w_ij at (i, j) and (j, i)."""
        rows = np.concatenate([self.ei, self.ej])
        cols = np.concatenate([self.ej, self.ei])
        adj = csr_matrix((np.concatenate([self.w, self.w]), (rows, cols)),
                         shape=(self.node_count, self.node_count))
        adj.sort_indices()
        return adj


def build_knn_graph(points: np.ndarray, k: int, sigma_p: float) -> WeightedGraph:
    """Symmetrized (union) k-NN graph with Gaussian kernel weights on (N, 3) points.

    Every node contributes its k nearest neighbors (exact, ties by smaller
    index); an edge exists if either endpoint selected the other, so each
    node has at least k incident edges.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    n = points.shape[0]
    if n < 2:
        raise DegenerateCloudError("k-NN graph needs at least 2 points")
    if k < 1 or k >= n:
        raise ValueError(f"k must satisfy 1 <= k < N, got k={k}, N={n}")
    if sigma_p <= 0:
        raise ValueError(f"sigma_p must be > 0, got {sigma_p}")
    if np.all(points == points[0]):
        raise DegenerateCloudError("all points coincide; k-NN graph undefined")

    idx = SpatialIndex(points).query_knn(points, k, exclude_self=True).ravel()
    src = np.repeat(np.arange(n, dtype=np.int64), k)
    # each selected pair once, as i < j, in (i, j) order
    ei, ej = np.divmod(np.unique(np.minimum(src, idx) * n + np.maximum(src, idx)), n)
    diff = points[ei] - points[ej]
    # Neighbours more than ~27 sigma_p apart underflow to weight 0; keep such
    # an edge at the smallest positive weight so the graph stays valid.
    w = np.maximum(np.exp(-np.sum(diff * diff, axis=-1) / (sigma_p * sigma_p)),
                   np.finfo(np.float64).tiny)
    return WeightedGraph(n, ei, ej, w)


def edge_list_lines(graph: WeightedGraph):
    """Yield 'i j w' debug lines in canonical order."""
    for a, b, wt in zip(graph.ei, graph.ej, graph.w):
        yield f"{a} {b} {wt:.17g}"
