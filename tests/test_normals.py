"""Normal estimation, affine coefficients, support pairs, orientation."""

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components, minimum_spanning_tree

from gtvdenoise.bipartite import RED, approximate_bipartite
from gtvdenoise.graph import WeightedGraph, build_knn_graph
from gtvdenoise.normals import (
    DEFAULT_COLLINEARITY_TOL,
    affine_normals,
    estimate_normal_field,
    normal_field_lines,
    orient_normals,
    support_pairs,
)


def one_model(p_i, p_k, p_l):
    """(n, C, d, A, b) of a single triple."""
    return [x[0] for x in affine_normals([p_i], [p_k], [p_l])]


def one_row(p_i, ids, pos, tol=DEFAULT_COLLINEARITY_TOL):
    """support_pairs on a single row: the pair (k, l), or None."""
    positions = np.zeros((max(ids) + 1, 3))
    positions[ids] = pos
    k, l = support_pairs(np.asarray(p_i, dtype=float)[None], np.asarray(ids)[None],
                         positions, tol)[0]
    return None if k < 0 else (int(k), int(l))


def reference_pairs(p_i, cand, positions, tol):
    """Node-by-node nested (k, l) scan over (distance, id)-ordered candidates."""
    out = np.full((cand.shape[0], 2), -1)
    for t, row in enumerate(cand):
        ids = row[row >= 0]
        pos = positions[ids]
        order = np.lexsort((ids, np.linalg.norm(pos - p_i[t], axis=1)))
        ids, pos = ids[order], pos[order]
        pairs = (
            (ids[a], ids[b])
            for a in range(ids.size) for b in range(ids.size)
            if b != a and np.linalg.norm(np.cross(p_i[t] - pos[a], pos[a] - pos[b]))
            > tol * (np.linalg.norm(p_i[t] - pos[a]) * np.linalg.norm(pos[a] - pos[b]))
        )
        out[t] = next(pairs, (-1, -1))
    return out


def random_candidates(rng, rows, width, lattice):
    """Node positions, (rows, width) candidate ids padded with -1, and positions.

    Each row's candidates sit in their own block of positions, with planted
    collinear, near-collinear (bend 1e-5) and coincident triples; lattice
    coordinates add exact distance ties. Rows hold 0 to width candidates,
    with the -1 padding shuffled in.
    """
    size = (rows * width, 3)
    positions = rng.integers(-2, 3, size).astype(float) if lattice else rng.normal(size=size)
    p_i = rng.integers(-2, 3, (rows, 3)).astype(float) if lattice else rng.normal(size=(rows, 3))
    cand = np.full((rows, width), -1)
    for t in range(rows):
        block = t * width + np.arange(width)
        d = rng.normal(size=3)
        kind = rng.integers(4)
        if kind == 1:    # the nearest candidates lie on a line through p_i
            positions[block[:3]] = p_i[t] + np.outer([0.1, 0.2, 0.3], d)
        elif kind == 2:  # near-collinear: valid at tol 1e-8, not at 1e-3
            positions[block[:2]] = p_i[t] + np.outer([0.1, 0.2], d)
            positions[block[1]] += 1e-5 * 0.2 * np.cross(d, rng.normal(size=3))
        elif kind == 3:  # coincident candidates, one on p_i itself
            positions[block[1]] = positions[block[0]]
            positions[block[2]] = p_i[t]
        n = rng.integers(width + 1)
        cand[t, :n] = rng.permutation(block)[:n]
        rng.shuffle(cand[t])
    return p_i, cand, positions


class TestSkewAndCoefficients:
    def test_skew_reproduces_cross_product(self):
        # C = skew(p_l - p_k) acts as a cross product with p_l - p_k
        rng = np.random.default_rng(0)
        p_k, p_l, x = rng.normal(size=(3, 50, 3))
        _, C, *_ = affine_normals(rng.normal(size=(50, 3)), p_k, p_l)
        np.testing.assert_allclose(
            np.einsum("nij,nj->ni", C, x), np.cross(p_l - p_k, x), atol=1e-12
        )

    def test_skew_antisymmetric(self):
        _, C, *_ = one_model([0, 1.0, 0], np.zeros(3), [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(C, -C.T)

    def test_affine_identity_random_triples(self):
        # C p + d must equal the direct cross product everywhere, not just
        # at the linearization point
        rng = np.random.default_rng(1)
        p_in, p_i, p_k, p_l = rng.normal(size=(4, 1000, 3))
        _, C, d, _, _ = affine_normals(p_in, p_k, p_l)
        direct = np.cross(p_i - p_k, p_k - p_l)
        np.testing.assert_allclose(np.einsum("nij,nj->ni", C, p_i) + d, direct, atol=1e-12)


class TestRawNormal:
    def test_unit_length_and_perpendicular(self):
        rng = np.random.default_rng(2)
        p_i, p_k, p_l = rng.normal(size=(3, 3))
        n, C, d, _, _ = one_model(p_i, p_k, p_l)
        assert np.linalg.norm(n) == pytest.approx(1.0)
        assert n @ (p_i - p_k) == pytest.approx(0.0, abs=1e-12)
        assert n @ (p_k - p_l) == pytest.approx(0.0, abs=1e-12)
        assert np.linalg.norm(C @ p_i + d) > 0

    def test_known_triangle(self):
        n, *_ = one_model([0, 0, 0.0], [1, 0, 0.0], [0, 1, 0.0])
        np.testing.assert_allclose(np.abs(n), [0, 0, 1], atol=1e-12)

    def test_collinear_rejected(self):
        # a collinear triple has no normal: it is never chosen as support
        assert one_row(np.zeros(3), [1, 2], [[1, 0, 0.0], [2, 0, 0.0]]) is None

    def test_near_collinear_tolerance(self):
        # bend of ~1e-6 rad: passes at tol 1e-8, rejected at tol 1e-3
        p_i = np.zeros(3)
        ids = [1, 2]
        pos = [[1.0, 1e-6, 0.0], [2.0, 0.0, 0.0]]
        assert one_row(p_i, ids, pos, tol=1e-8) == (1, 2)
        assert one_row(p_i, ids, pos, tol=1e-3) is None


class TestLinearize:
    def test_unit_norm_at_linearization_point(self):
        rng = np.random.default_rng(3)
        p_i, p_k, p_l = rng.normal(size=(3, 3))
        n, C, d, A, b = one_model(p_i, p_k, p_l)
        np.testing.assert_allclose(A @ p_i + b, n, atol=1e-12)
        assert np.linalg.norm(A @ p_i + b) == pytest.approx(1.0)
        np.testing.assert_allclose(A * np.linalg.norm(C @ p_i + d), C, atol=1e-12)

    def test_alpha_flips_sign(self):
        # the field's models are the unsigned ones times the orientation sign
        pos, graph, bp = TestEstimateNormalField()._plane_setup(seed=9)
        pos[:, 2] = np.random.default_rng(9).normal(scale=0.1, size=pos.shape[0])
        field, _ = estimate_normal_field(pos, graph, bp.assignment, RED, k=8, sigma_p=1.5)
        pk, pl = pos[field.pairs[:, 0]], pos[field.pairs[:, 1]]
        n, _, _, A, b = affine_normals(pos[field.ids], pk, pl)
        assert set(np.unique(field.alpha)) == {-1, 1}
        np.testing.assert_array_equal(field.A, field.alpha[:, None, None] * A)
        np.testing.assert_array_equal(field.b, field.alpha[:, None] * b)
        np.testing.assert_array_equal(field.normals, field.alpha[:, None] * n)


class TestSupportPair:
    def test_nearest_valid_pair_wins(self):
        p_i = np.zeros(3)
        ids = [10, 11, 12]
        pos = [[1, 0, 0], [2, 0, 0], [0, 1, 0.0]]  # 10 and 11 collinear with p_i
        assert one_row(p_i, ids, pos, tol=1e-8) == (10, 12)

    def test_k_advances_when_no_partner_fits(self):
        # all partners of candidate 0 are collinear; candidate 1 pairs with 2
        p_i = np.zeros(3)
        ids = [5, 6, 7]
        pos = [[1, 0, 0], [2, 0, 0], [3, 0, 0.0]]
        assert one_row(p_i, ids, pos, tol=1e-8) is None

    def test_too_few_candidates(self):
        assert one_row(np.zeros(3), [4], np.ones((1, 3)), 1e-8) is None

    @pytest.mark.parametrize("lattice", [False, True])
    @pytest.mark.parametrize("tol", [1e-8, 1e-3])
    def test_batched_rule_matches_nested_scan(self, tol, lattice):
        rng = np.random.default_rng(20 + lattice)
        p_i, cand, positions = random_candidates(rng, 300, 7, lattice)
        got = support_pairs(p_i, cand, positions, tol)
        want = reference_pairs(p_i, cand, positions, tol)
        np.testing.assert_array_equal(got, want)
        # every outcome occurs: no pair, a pair on the first k, a later k
        assert (want[:, 0] < 0).sum() > 10
        nearest = [row[row >= 0][np.lexsort((row[row >= 0], np.linalg.norm(
            positions[row[row >= 0]] - p, axis=1)))][:1] for p, row in zip(p_i, cand)]
        first = np.array([w[0] >= 0 and w[0] == n[0] for w, n in zip(want, nearest)])
        assert first.sum() > 10 and (~first & (want[:, 0] >= 0)).sum() > 0

    def test_no_rows(self):
        assert support_pairs(np.zeros((0, 3)), np.zeros((0, 0), dtype=int),
                             np.zeros((4, 3))).shape == (0, 2)


def reference_orientation(positions, normals, graph):
    """Signs by a breadth-first walk of each tree of the minimum spanning forest.

    Same forest as orient_normals; each tree is rooted at its first maximum-z
    node and signs pass from parent to child one node at a time.
    """
    n = positions.shape[0]
    adj = graph.adjacency
    rows = np.repeat(np.arange(n), np.diff(adj.indptr))
    dots = np.einsum("ij,ij->i", normals[rows], normals[adj.indices])
    costs = csr_matrix((np.maximum(1.0 - np.abs(dots), np.finfo(np.float64).tiny),
                        adj.indices, adj.indptr), shape=(n, n))
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
    return alphas, forest


def random_orientation_case(rng):
    """Positions, normals and class k-NN graph of 1-5 far-apart clusters.

    Lattice clusters add exact distance ties and coincident points; axis
    normals add exactly tied costs and tree edges with dot exactly 0.
    """
    k = int(rng.integers(1, 9))
    clusters = []
    for c in range(rng.integers(1, 6)):
        size = int(rng.integers(k + 1, k + 15))
        lattice = rng.random() < 0.5
        pts = (rng.integers(-2, 3, (size, 3)).astype(float) if lattice
               else rng.normal(size=(size, 3)))
        clusters.append(pts + 100.0 * c)
    positions = np.concatenate(clusters)
    n = positions.shape[0]
    normals = rng.normal(size=(n, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    axis = rng.random(n) < rng.random()
    normals[axis] = np.eye(3)[rng.integers(3, size=axis.sum())] * rng.choice([-1.0, 1.0],
                                                                             (axis.sum(), 1))
    return positions, normals, build_knn_graph(positions, min(k, n - 1), 1.5)


class TestOrientation:
    def test_matches_the_breadth_first_reference(self):
        rng = np.random.default_rng(30)
        several = orthogonal = 0
        for _ in range(300):
            positions, normals, graph = random_orientation_case(rng)
            want, forest = reference_orientation(positions, normals, graph)
            np.testing.assert_array_equal(orient_normals(positions, normals, graph), want)
            u, v = forest.nonzero()
            several += connected_components(forest, directed=False)[0] > 1
            orthogonal += np.any(np.einsum("ij,ij->i", normals[u], normals[v]) == 0)
        # the cases cover forests of several trees and tree edges at dot 0
        assert several > 100 and orthogonal > 50

    def test_edgeless_graph_signs_every_node_by_its_z(self):
        rng = np.random.default_rng(31)
        normals = rng.normal(size=(50, 3))
        normals[:5, 2] = 0.0
        alphas = orient_normals(rng.normal(size=(50, 3)), normals, WeightedGraph(50, [], [], []))
        np.testing.assert_array_equal(alphas, np.where(normals[:, 2] >= 0, 1, -1))

    def test_flat_patch_all_agree(self):
        rng = np.random.default_rng(5)
        pos = np.zeros((30, 3))
        pos[:, :2] = rng.uniform(0, 5, size=(30, 2))
        normals = np.tile([0.0, 0, 1], (30, 1))
        normals[::2] *= -1  # scramble signs
        alphas = orient_normals(pos, normals, build_knn_graph(pos, 4, 1.5))
        oriented = normals * alphas[:, None]
        assert np.all(oriented[:, 2] > 0)

    def test_parallel_horizontal_normals_all_agree(self):
        # exactly parallel normals give zero orientation costs; the patch
        # must still form one tree, since a lone node with n_z = 0 cannot
        # orient itself
        rng = np.random.default_rng(12)
        pos = np.zeros((30, 3))
        pos[:, 1:] = rng.uniform(0, 5, size=(30, 2))
        normals = np.tile([1.0, 0, 0], (30, 1))
        normals[rng.permutation(30)[:15]] *= -1  # scramble signs
        alphas = orient_normals(pos, normals, build_knn_graph(pos, 4, 1.5))
        oriented = normals * alphas[:, None]
        np.testing.assert_array_equal(oriented, np.tile(oriented[0], (30, 1)))

    def test_root_points_up(self):
        # single node: sign toward non-negative z
        lone = WeightedGraph(1, [], [], [])
        assert orient_normals(np.zeros((1, 3)), np.array([[0, 0, -1.0]]), lone)[0] == -1
        assert orient_normals(np.zeros((1, 3)), np.array([[0, 0, 1.0]]), lone)[0] == 1

    def test_sphere_patch_outward_consistency(self):
        # normals on a hemisphere cap with random sign flips: after
        # orientation every neighbor pair must agree in sign
        rng = np.random.default_rng(6)
        n = 80
        theta = rng.uniform(0, 0.4 * np.pi, n)
        phi = rng.uniform(0, 2 * np.pi, n)
        dirs = np.column_stack(
            [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
        )
        flips = rng.choice([-1.0, 1.0], size=n)
        alphas = orient_normals(dirs, dirs * flips[:, None], build_knn_graph(dirs, 6, 1.5))
        oriented = dirs * (flips * alphas)[:, None]
        # outward means positive dot with the radial direction
        assert np.all(np.sum(oriented * dirs, axis=1) > 0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            orient_normals(np.zeros((3, 3)), np.zeros((2, 3)), WeightedGraph(3, [], [], []))
        with pytest.raises(ValueError):
            orient_normals(np.zeros((3, 3)), np.zeros((3, 3)), WeightedGraph(2, [], [], []))


class TestEstimateNormalField:
    def _plane_setup(self, n=120, seed=7):
        rng = np.random.default_rng(seed)
        pos = np.zeros((n, 3))
        pos[:, :2] = rng.uniform(0, 10, size=(n, 2))
        graph = build_knn_graph(pos, k=8, sigma_p=1.5)
        bp = approximate_bipartite(graph)
        return pos, graph, bp

    def test_flat_cloud_normals_along_z(self):
        pos, graph, bp = self._plane_setup()
        field, failed = estimate_normal_field(pos, graph, bp.assignment, RED, k=8, sigma_p=1.5)
        assert failed == []
        assert len(field.ids) == bp.red.size
        np.testing.assert_allclose(np.abs(field.normals[:, 2]), 1.0, atol=1e-9)
        # oriented consistently: all the same sign
        assert len(np.unique(np.sign(field.normals[:, 2]))) == 1

    def test_support_pairs_come_from_opposite_class(self):
        pos, graph, bp = self._plane_setup()
        field, _ = estimate_normal_field(pos, graph, bp.assignment, RED, k=8, sigma_p=1.5)
        assert field.pairs.shape == (field.ids.size, 2)
        for i, (k, l) in zip(field.ids, field.pairs):
            assert k != l and i not in (k, l)
            assert bp.assignment[i] == RED
            assert bp.assignment[k] != RED
            assert bp.assignment[l] != RED

    def test_linearization_matches_normal(self):
        pos, graph, bp = self._plane_setup(seed=8)
        field, _ = estimate_normal_field(pos, graph, bp.assignment, RED, k=8, sigma_p=1.5)
        np.testing.assert_allclose(
            np.einsum("nij,nj->ni", field.A, pos[field.ids]) + field.b,
            field.normals, atol=1e-12,
        )

    def test_global_fallback_when_neighbors_degenerate(self):
        # red node whose only graph-adjacent blues are collinear with it;
        # the global pool must supply a valid pair
        pos = np.array(
            [
                [0.0, 0, 0],    # 0 red target
                [1.0, 0, 0],    # 1 blue, collinear with 0 and 2
                [2.0, 0, 0],    # 2 blue
                [0.0, 3.0, 0],  # 3 blue off-axis, farther away
                [-1.0, 0, 0],   # 4 red
                [0.0, -3.0, 1.0],  # 5 red
            ]
        )
        graph = build_knn_graph(pos, k=2, sigma_p=5.0)
        assignment = np.array([0, 1, 1, 1, 0, 0])
        field, failed = estimate_normal_field(pos, graph, assignment, RED, k=2, sigma_p=5.0,
                                              tol=1e-6)
        assert 0 not in failed
        t = list(field.ids).index(0)
        assert set(field.pairs[t].tolist()) <= {1, 2, 3}

    @pytest.mark.parametrize("n, k", [(120, 8), (40, 3), (9, 8)])
    def test_class_graph_is_the_knn_graph_of_the_paired_nodes(self, n, k):
        rng = np.random.default_rng(n)
        pos = rng.uniform(0, 5, size=(n, 3))
        pos[:, 2] *= 0.1
        graph = build_knn_graph(pos, min(k, n - 1), sigma_p=1.5)
        bp = approximate_bipartite(graph)
        field, _ = estimate_normal_field(pos, graph, bp.assignment, RED, k=k, sigma_p=0.7)
        want = build_knn_graph(pos[field.ids], min(k, field.ids.size - 1), 0.7)
        assert field.graph.node_count == field.ids.size
        for name in ("ei", "ej", "w"):
            np.testing.assert_array_equal(getattr(field.graph, name), getattr(want, name))

    def test_class_graph_of_coincident_nodes_is_edgeless(self):
        pos = np.array([[0.0, 0, 0], [0, 0, 0], [0, 0, 0],
                        [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]])
        graph = build_knn_graph(pos, k=3, sigma_p=1.5)
        assignment = np.array([0, 0, 0, 1, 1, 1, 1])
        field, failed = estimate_normal_field(pos, graph, assignment, RED, k=3, sigma_p=1.5)
        assert failed == [] and field.ids.tolist() == [0, 1, 2]
        assert field.graph.node_count == 3 and field.graph.edge_count == 0
        # every node is its own tree's root, signed toward non-negative z
        assert np.all(field.normals[:, 2] >= 0)

    def test_all_collinear_reports_failure(self):
        pos = np.zeros((6, 3))
        pos[:, 0] = np.arange(6)  # everything on the x axis
        graph = build_knn_graph(pos, k=2, sigma_p=5.0)
        assignment = np.array([0, 1, 0, 1, 0, 1])
        field, failed = estimate_normal_field(pos, graph, assignment, RED, k=2, sigma_p=5.0)
        assert len(field.ids) == 0
        assert sorted(failed) == [0, 2, 4]


def test_normal_field_lines_format():
    pos = np.array([[0, 0, 0.0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0.5, 0.5, 2.0]])
    graph = build_knn_graph(pos, k=3, sigma_p=1.5)
    bp = approximate_bipartite(graph)
    field, _ = estimate_normal_field(pos, graph, bp.assignment, RED, k=3, sigma_p=1.5)
    lines = list(normal_field_lines(field))
    assert len(lines) == len(field.ids)
    head = lines[0].split()
    assert len(head) == 7
    assert int(head[0]) == field.ids[0]
    assert head[4] in ("+1", "-1")
