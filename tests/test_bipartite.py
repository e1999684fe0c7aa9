"""Greedy two-coloring and the divergence criterion behind it."""

import numpy as np
import pytest
from scipy.sparse.csgraph import breadth_first_order, connected_components, shortest_path

from gtvdenoise.bipartite import (
    BLUE,
    RED,
    DELTA,
    TIE_RTOL,
    VIEW_HOPS,
    Bipartition,
    approximate_bipartite,
    bipartition_lines,
)
from gtvdenoise.graph import WeightedGraph, build_knn_graph

from reference import induced_bipartite_graph, kld, laplacian


def path_graph(n, w=1.0):
    idx = np.arange(n - 1)
    return WeightedGraph(n, idx, idx + 1, np.full(n - 1, w))


def cycle_graph(n, w=1.0):
    ei = np.arange(n)
    ej = (ei + 1) % n
    return WeightedGraph(n, ei, ej, np.full(n, w))


def grid_graph(nx, ny, w=1.0):
    ei, ej = [], []
    for x in range(nx):
        for y in range(ny):
            node = x * ny + y
            if y + 1 < ny:
                ei.append(node), ej.append(node + 1)
            if x + 1 < nx:
                ei.append(node), ej.append(node + ny)
    return WeightedGraph(nx * ny, ei, ej, np.full(len(ei), w))


def removed_intra_edges(graph, bp):
    return int(np.sum(bp.assignment[graph.ei] == bp.assignment[graph.ej]))


def sequential_greedy(graph):
    """One node at a time in BFS rank order from node 0, each scored with kld on its view.

    The view is every assigned node within VIEW_HOPS of the node, plus the
    node. Near-equal divergences alternate, red first, and the last node may
    not land a tie in the only populated class.
    """
    n = graph.node_count
    hops = shortest_path(graph.adjacency, unweighted=True)
    w_all = graph.adjacency.toarray()
    lap = lambda w: np.diag(w.sum(axis=1)) - w
    assign = np.full(n, -1)
    tie_next = RED
    for seed in range(n):
        if assign[seed] >= 0:
            continue
        for c in breadth_first_order(graph.adjacency, seed, return_predecessors=False):
            if np.all(assign < 0):
                assign[c] = RED
                continue
            view = np.flatnonzero(((assign >= 0) & (hops[c] <= VIEW_HOPS)) | (np.arange(n) == c))
            w = w_all[np.ix_(view, view)]
            d = []
            for g in (RED, BLUE):
                cls = assign[view].copy()
                cls[view == c] = g
                d.append(kld(lap(w), lap(w * (cls[:, None] != cls[None, :])), DELTA))
            if abs(d[BLUE] - d[RED]) <= TIE_RTOL * max(1.0, abs(d[RED])):
                g, tie_next = tie_next, 1 - tie_next
                if np.sum(assign >= 0) == n - 1 and np.all(assign[assign >= 0] == g):
                    g = 1 - g
            else:
                g = RED if d[BLUE] > d[RED] else BLUE
            assign[c] = g
    return assign


def ties(bp):
    """Which recorded decisions tied; the unscored seed does not."""
    return np.abs(bp.d_blue - bp.d_red) <= TIE_RTOL * np.maximum(1.0, np.abs(bp.d_red))


class TestKld:
    def test_identical_fields_give_zero(self):
        g = path_graph(5)
        L = laplacian(g)
        assert kld(L, L, 0.01) == pytest.approx(0.0, abs=1e-9)

    def test_two_node_edge_drop_closed_form(self):
        # unit edge with delta = 1: dropping it costs
        # 0.5 * (4/3 + ln 3 - 2) = 0.2159728110007215...
        g = path_graph(2)
        L = laplacian(g)
        got = kld(L, np.zeros((2, 2)), delta=1.0)
        expect = 0.5 * (4.0 / 3.0 + np.log(3.0) - 2.0)
        assert got == pytest.approx(expect, abs=1e-12)
        assert got == pytest.approx(0.21597281100072152, abs=1e-12)

    def test_nonnegative_on_random_edge_subsets(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(12, 3))
        g = build_knn_graph(pts, k=3, sigma_p=1.5)
        L = laplacian(g)
        for _ in range(20):
            keep = rng.random(g.edge_count) < 0.6
            sub = WeightedGraph(g.node_count, g.ei[keep], g.ej[keep], g.w[keep])
            assert kld(L, laplacian(sub), 0.01) >= -1e-9

    def test_monotone_in_dropped_weight(self):
        # dropping a heavier edge hurts more
        L1 = laplacian(path_graph(2, w=0.3))
        L2 = laplacian(path_graph(2, w=0.9))
        z = np.zeros((2, 2))
        assert kld(L2, z, 0.01) > kld(L1, z, 0.01)

    def test_bad_delta_rejected(self):
        L = laplacian(path_graph(2))
        with pytest.raises(ValueError):
            kld(L, L, 0.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kld(np.zeros((2, 2)), np.zeros((3, 3)), 0.1)


class TestBipartitionContainer:
    def test_red_blue_index_sets(self):
        bp = Bipartition(np.array([RED, BLUE, RED]))
        np.testing.assert_array_equal(bp.red, [0, 2])
        np.testing.assert_array_equal(bp.blue, [1])

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            Bipartition(np.zeros(4, dtype=int))

    def test_rejects_other_labels(self):
        with pytest.raises(ValueError):
            Bipartition(np.array([0, 2]))

    def test_singleton_graph_allowed(self):
        assert Bipartition(np.array([RED])).red.tolist() == [0]


class TestGreedyOnBipartiteGraphs:
    """Structurally two-colorable graphs must be recovered with no loss."""

    @pytest.mark.parametrize(
        "graph",
        [path_graph(6), path_graph(11), cycle_graph(8), cycle_graph(12), grid_graph(4, 5)],
        ids=["path6", "path11", "cycle8", "cycle12", "grid4x5"],
    )
    def test_zero_removed_edges_and_zero_kld(self, graph):
        bp = approximate_bipartite(graph)
        assert removed_intra_edges(graph, bp) == 0
        L = laplacian(graph)
        Lb = laplacian(induced_bipartite_graph(graph, bp))
        assert kld(L, Lb, DELTA) <= 1e-9

    def test_proper_two_coloring(self):
        g = grid_graph(3, 4)
        bp = approximate_bipartite(g)
        assert np.all(bp.assignment[g.ei] != bp.assignment[g.ej])


class TestGreedyGeneral:
    def test_triangle_removes_exactly_one_edge(self):
        g = cycle_graph(3)
        bp = approximate_bipartite(g)
        assert removed_intra_edges(g, bp) == 1

    def test_start_node_is_red(self):
        bp = approximate_bipartite(path_graph(5))
        assert bp.order[0] == 0 and bp.assignment[0] == RED

    def test_deterministic(self):
        pts = np.random.default_rng(1).normal(size=(40, 3))
        g = build_knn_graph(pts, k=4, sigma_p=1.5)
        a = approximate_bipartite(g).assignment
        b = approximate_bipartite(g).assignment
        np.testing.assert_array_equal(a, b)

    def test_disconnected_components_all_assigned(self):
        # two disjoint paths
        g = WeightedGraph(6, [0, 1, 3, 4], [1, 2, 4, 5], np.ones(4) * 0.5)
        bp = approximate_bipartite(g)
        assert np.all((bp.assignment == RED) | (bp.assignment == BLUE))
        assert removed_intra_edges(g, bp) == 0

    def test_trace_records_every_decision(self):
        g = cycle_graph(5)
        bp = approximate_bipartite(g)
        assert sorted(bp.order) == list(range(5))
        assert bp.d_red.shape == bp.d_blue.shape == (5,)
        assert np.isnan(bp.d_red[0]) and np.isnan(bp.d_blue[0])
        assert bp.assignment[bp.order[0]] == RED
        tie = ties(bp)
        for node, d_red, d_blue, t in zip(bp.order[1:], bp.d_red[1:], bp.d_blue[1:], tie[1:]):
            assert d_red >= -1e-9 and d_blue >= -1e-9
            if not t:
                worse_to_drop = RED if d_blue > d_red else BLUE
                assert bp.assignment[node] == worse_to_drop

    def test_divergences_nonnegative_on_knn_cloud(self):
        pts = np.random.default_rng(2).normal(size=(30, 3))
        g = build_knn_graph(pts, k=4, sigma_p=1.5)
        bp = approximate_bipartite(g)
        assert np.all(bp.d_red[1:] >= -1e-9) and np.all(bp.d_blue[1:] >= -1e-9)

    @pytest.mark.parametrize("clusters", [1, 2], ids=["connected", "two-components"])
    def test_divergences_match_dense_reference(self, clusters):
        # every candidate divergence equals kld() of dense Laplacians on the
        # step's local view: assigned nodes within VIEW_HOPS, plus the node
        rng = np.random.default_rng(1)
        pts = np.vstack([rng.normal(size=(40 // clusters, 3)) + 1000.0 * c
                         for c in range(clusters)])
        g = build_knn_graph(pts, k=4, sigma_p=1.5)
        assert connected_components(g.adjacency)[0] == clusters
        hops = shortest_path(g.adjacency, unweighted=True)
        bp = approximate_bipartite(g)
        assert sorted(bp.order) == list(range(g.node_count))
        assign = np.full(g.node_count, -1)
        for t, node in enumerate(bp.order):
            if t > 0:
                view = np.flatnonzero(((assign >= 0) & (hops[node] <= VIEW_HOPS))
                                      | (np.arange(g.node_count) == node))
                inside = np.isin(g.ei, view) & np.isin(g.ej, view)
                ei = np.searchsorted(view, g.ei[inside])
                ej = np.searchsorted(view, g.ej[inside])
                w = g.w[inside]
                l_orig = laplacian(WeightedGraph(view.size, ei, ej, w))
                for g_c, d in ((RED, bp.d_red[t]), (BLUE, bp.d_blue[t])):
                    cls = assign[view].copy()
                    cls[view == node] = g_c
                    cross = cls[ei] != cls[ej]
                    l_bip = laplacian(WeightedGraph(view.size, ei[cross], ej[cross], w[cross]))
                    assert d == pytest.approx(kld(l_orig, l_bip, DELTA), rel=1e-10, abs=1e-10)
            assign[node] = bp.assignment[node]

    @pytest.mark.parametrize("seed,k", [(0, 4), (1, 5), (2, 6), (3, 8), (4, 7), (5, 4)])
    def test_levels_match_the_sequential_greedy_on_knn_clouds(self, seed, k):
        pts = np.random.default_rng(seed).normal(size=(60, 3))
        g = build_knn_graph(pts, k=k, sigma_p=1.5)
        bp = approximate_bipartite(g)
        np.testing.assert_array_equal(bp.assignment, sequential_greedy(g))
        assert 1 < bp.levels < g.node_count

    def test_levels_match_the_sequential_greedy_on_two_components(self):
        rng = np.random.default_rng(3)
        pts = np.vstack([rng.normal(size=(25, 3)), rng.normal(size=(30, 3)) + 1000.0])
        g = build_knn_graph(pts, k=4, sigma_p=1.5)
        assert connected_components(g.adjacency)[0] == 2
        bp = approximate_bipartite(g)
        np.testing.assert_array_equal(bp.assignment, sequential_greedy(g))

    def test_levels_match_the_sequential_greedy_on_ties(self):
        # unit-weight triangles and K4s: each non-first component's root and
        # each node between a red and a blue neighbour ties
        ei, ej = [], []
        for base, size in ((0, 3), (3, 4), (7, 3), (10, 4), (14, 3)):
            for a in range(size):
                for b in range(a + 1, size):
                    ei.append(base + a), ej.append(base + b)
        g = WeightedGraph(17, ei, ej, np.ones(len(ei)))
        bp = approximate_bipartite(g)
        assert ties(bp).sum() == 9
        np.testing.assert_array_equal(bp.assignment, sequential_greedy(g))
        # edgeless graphs tie at every node, so after the red seed the picks
        # alternate red first; with 2 nodes the forced rule overrides the pick
        for n in (2, 3, 5):
            g = WeightedGraph(n, [], [], [])
            bp = approximate_bipartite(g)
            assert ties(bp)[1:].all()
            alternation = np.array([RED] + [RED, BLUE] * n)[:n]
            forced = bp.assignment[bp.order] != alternation
            assert forced.tolist() == [False, n == 2] + [False] * (n - 2)
            np.testing.assert_array_equal(bp.assignment, sequential_greedy(g))


class TestInducedSubgraph:
    def test_keeps_only_cross_edges(self):
        g = cycle_graph(3)
        bp = approximate_bipartite(g)
        sub = induced_bipartite_graph(g, bp)
        assert sub.edge_count == 2
        assert np.all(bp.assignment[sub.ei] != bp.assignment[sub.ej])

    def test_weights_preserved(self):
        g = WeightedGraph(4, [0, 1, 2], [1, 2, 3], [0.2, 0.4, 0.6])
        bp = Bipartition(np.array([RED, BLUE, RED, BLUE]))
        sub = induced_bipartite_graph(g, bp)
        np.testing.assert_array_equal(sub.w, [0.2, 0.4, 0.6])

    def test_size_mismatch_rejected(self):
        g = path_graph(4)
        with pytest.raises(ValueError):
            induced_bipartite_graph(g, Bipartition(np.array([RED, BLUE])))


def test_bipartition_lines_format():
    bp = Bipartition(np.array([RED, BLUE]))
    assert list(bipartition_lines(bp)) == ["0 red", "1 blue"]
