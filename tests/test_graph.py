"""k-NN graph construction, weights, Laplacian."""

import numpy as np
import pytest

from gtvdenoise.errors import DegenerateCloudError
from gtvdenoise.graph import (
    SpatialIndex,
    WeightedGraph,
    build_knn_graph,
    edge_list_lines,
)

from reference import laplacian


def brute_force_knn(points, k):
    """Reference neighbors by full pairwise distances, ties to smaller index."""
    n = len(points)
    out = np.empty((n, k), dtype=np.int64)
    for i in range(n):
        d = np.linalg.norm(points - points[i], axis=1)
        order = np.lexsort((np.arange(n), d))
        out[i] = [j for j in order if j != i][:k]
    return out


class TestSpatialIndex:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(60, 3))
        got = SpatialIndex(pts).query_knn(pts, 5, exclude_self=True)
        np.testing.assert_array_equal(got, brute_force_knn(pts, 5))

    def test_tie_break_prefers_smaller_index(self):
        # points 1 and 2 are equidistant from point 0
        pts = np.array([[0, 0, 0], [1, 0, 0], [-1, 0, 0], [5, 5, 5.0]])
        nbrs = SpatialIndex(pts).query_knn(pts[:1], 2)
        np.testing.assert_array_equal(nbrs, [[0, 1]])
        nbrs = SpatialIndex(pts).query_knn(pts, 2, exclude_self=True)
        np.testing.assert_array_equal(nbrs[0], [1, 2])

    @pytest.mark.parametrize("k", [1, 3, 5, 9])
    def test_exclude_self_among_duplicates(self, k):
        # every point 6 times over: each row's own index sits inside a run
        # of distance-0 ties, often not first in it
        rng = np.random.default_rng(3)
        pts = np.repeat(rng.normal(size=(10, 3)), 6, axis=0)[rng.permutation(60)]
        index = SpatialIndex(pts)
        full = index.query_knn(pts, k + 1)
        want = np.array([row[row != i][:k] for i, row in enumerate(full)])
        assert sum(row[0] != i for i, row in enumerate(full)) > 20
        np.testing.assert_array_equal(index.query_knn(pts, k, exclude_self=True), want)

    def test_tie_run_across_candidate_cutoff(self):
        # 8 corners of a cube are all equidistant from the center
        corners = np.array(
            [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)],
            dtype=float,
        )
        pts = np.vstack([[0, 0, 0], corners])
        nbrs = SpatialIndex(pts).query_knn(np.zeros((1, 3)), 9)
        np.testing.assert_array_equal(nbrs[0], np.arange(9))

    def test_insertion_order_invariance(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(40, 3))
        perm = rng.permutation(40)
        a = SpatialIndex(pts).nearest(np.zeros((1, 3)))[0]
        b = SpatialIndex(pts[perm]).nearest(np.zeros((1, 3)))[0]
        assert np.array_equal(pts[a], pts[perm][b])

    def test_too_many_neighbors_rejected(self):
        pts = np.zeros((3, 3))
        with pytest.raises(ValueError):
            SpatialIndex(pts).query_knn(pts, 3, exclude_self=True)


class TestEdgeWeight:
    """The Gaussian kernel build_knn_graph puts on its edges."""

    def test_identical_points_weight_one(self):
        g = build_knn_graph(np.array([[0, 0, 0], [0, 0, 0], [5, 0, 0.0]]), k=1, sigma_p=1.5)
        assert (g.ei[0], g.ej[0], g.w[0]) == (0, 1, 1.0)

    def test_known_value(self):
        # distance 1, sigma 1 -> exp(-1)
        g = build_knn_graph(np.array([[0, 0, 0], [1, 0, 0.0]]), k=1, sigma_p=1.0)
        assert g.w == pytest.approx([np.exp(-1.0)])

    def test_monotone_decreasing_in_distance(self):
        # edges (0, 1) of length 1 and (1, 2) of length 2
        g = build_knn_graph(np.array([[0, 0, 0], [1, 0, 0], [3, 0, 0.0]]), k=1, sigma_p=1.5)
        np.testing.assert_array_equal(g.ej, [1, 2])
        assert 0 < g.w[1] < g.w[0] <= 1

    def test_batched(self):
        # a chain of diagonal steps: four edges of length sqrt(3)
        g = build_knn_graph(np.outer(np.arange(5.0), np.ones(3)), k=1, sigma_p=1.5)
        assert g.w.shape == (4,)
        assert np.allclose(g.w, np.exp(-3.0 / 2.25))

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError):
            build_knn_graph(np.array([[0, 0, 0], [1, 1, 1.0]]), k=1, sigma_p=0.0)


class TestWeightedGraph:
    def test_canonicalizes_edges(self):
        g = WeightedGraph(3, [2, 1], [0, 0], [0.5, 0.25])
        np.testing.assert_array_equal(g.ei, [0, 0])
        np.testing.assert_array_equal(g.ej, [1, 2])
        np.testing.assert_array_equal(g.w, [0.25, 0.5])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            WeightedGraph(2, [0], [0], [1.0])

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError):
            WeightedGraph(2, [0, 1], [1, 0], [0.5, 0.5])

    def test_rejects_out_of_range_weight(self):
        with pytest.raises(ValueError):
            WeightedGraph(2, [0], [1], [1.5])
        with pytest.raises(ValueError):
            WeightedGraph(2, [0], [1], [0.0])

    def test_degrees_and_counts(self):
        g = WeightedGraph(3, [0, 1], [1, 2], [0.5, 0.25])
        # weighted degrees are the adjacency's row sums
        np.testing.assert_allclose(np.ravel(g.adjacency.sum(axis=1)), [0.5, 0.75, 0.25])
        np.testing.assert_array_equal(np.diff(g.adjacency.indptr), [1, 2, 1])

    def test_adjacency(self):
        g = WeightedGraph(4, [0, 0, 2], [1, 2, 3], [0.1, 0.2, 0.3])
        adj = g.adjacency
        assert adj.has_sorted_indices
        np.testing.assert_array_equal(adj.indices[adj.indptr[0]:adj.indptr[1]], [1, 2])
        np.testing.assert_array_equal(adj.indices[adj.indptr[3]:adj.indptr[4]], [2])
        assert adj[3, 2] == adj[2, 3] == 0.3
        assert adj[1, 3] == 0

    def test_subgraph_keeps_the_edges_among_the_nodes_relabelled(self):
        g = WeightedGraph(5, [0, 0, 1, 2, 3], [1, 4, 3, 3, 4], [0.1, 0.2, 0.3, 0.4, 0.5])
        sub = g.subgraph(np.array([1, 3, 4]))
        assert sub.node_count == 3
        np.testing.assert_array_equal(sub.ei, [0, 1])
        np.testing.assert_array_equal(sub.ej, [1, 2])
        np.testing.assert_array_equal(sub.w, [0.3, 0.5])
        whole = g.subgraph(np.arange(5))
        np.testing.assert_array_equal(whole.adjacency.toarray(), g.adjacency.toarray())


class TestBuildKnnGraph:
    def test_union_symmetrization(self):
        # point 2 is far right: 2 chooses {0, 1}; 0 and 1 choose each other
        # plus 2 by union, so edge (0, 2) exists only via 2's list
        pts = np.array([[0, 0, 0], [1, 0, 0], [10, 0, 0.0]])
        g = build_knn_graph(pts, k=2, sigma_p=100.0)
        pairs = set(zip(g.ei.tolist(), g.ej.tolist()))
        assert pairs == {(0, 1), (0, 2), (1, 2)}

    def test_min_degree_k(self):
        rng = np.random.default_rng(2)
        g = build_knn_graph(rng.normal(size=(80, 3)), k=6, sigma_p=1.5)
        assert np.diff(g.adjacency.indptr).min() >= 6

    def test_weights_match_kernel(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(30, 3))
        g = build_knn_graph(pts, k=4, sigma_p=1.5)
        expect = np.exp(-np.sum((pts[g.ei] - pts[g.ej]) ** 2, axis=1) / 1.5**2)
        np.testing.assert_allclose(g.w, expect)

    def test_coincident_cloud_rejected(self):
        with pytest.raises(DegenerateCloudError):
            build_knn_graph(np.zeros((5, 3)), k=2, sigma_p=1.5)

    def test_far_neighbors_keep_a_positive_weight(self):
        # two 3-point clusters 1000 apart: k = 3 forces edges between them,
        # whose Gaussian weight underflows to 0
        near = np.random.default_rng(6).normal(size=(3, 3))
        pts = np.vstack([near, near + 1000.0])
        g = build_knn_graph(pts, k=3, sigma_p=1.5)
        crossing = (g.ei < 3) != (g.ej < 3)
        assert crossing.any()
        np.testing.assert_array_equal(g.w[crossing], np.finfo(np.float64).tiny)
        assert np.all(g.w[~crossing] > 1e-6)

    def test_bad_k_rejected(self):
        pts = np.random.default_rng(5).normal(size=(10, 3))
        with pytest.raises(ValueError):
            build_knn_graph(pts, k=0, sigma_p=1.5)
        with pytest.raises(ValueError):
            build_knn_graph(pts, k=10, sigma_p=1.5)


class TestLaplacian:
    def test_zero_row_sums_and_psd(self):
        pts = np.random.default_rng(7).normal(size=(40, 3))
        g = build_knn_graph(pts, k=5, sigma_p=1.5)
        L = laplacian(g)
        np.testing.assert_allclose(L.sum(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(L, L.T)
        eig = np.linalg.eigvalsh(L)
        assert eig.min() > -1e-10

    def test_quadratic_form_counts_edge_differences(self):
        g = WeightedGraph(3, [0, 1], [1, 2], [0.5, 0.25])
        L = laplacian(g)
        x = np.array([1.0, 3.0, 0.0])
        expect = 0.5 * (1 - 3) ** 2 + 0.25 * (3 - 0) ** 2
        assert x @ L @ x == pytest.approx(expect)


def test_edge_list_lines_roundtrip():
    g = WeightedGraph(3, [0, 1], [1, 2], [0.5, 1 / 3])
    lines = list(edge_list_lines(g))
    assert lines[0] == "0 1 0.5"
    i, j, w = lines[1].split()
    assert (int(i), int(j)) == (1, 2)
    assert float(w) == 1 / 3
