"""Bipartite approximation of a weighted graph.

A graph is interpreted as a Gauss-Markov random field with precision
matrix L + DELTA*I; DELTA = 0.01 only makes it invertible. Nodes, ranked
in BFS order, are assigned to one of two classes (red / blue);
intra-class edges are dropped. Each assignment picks the class whose
resulting field stays closest to the original in Kullback-Leibler
divergence, evaluated on a local view of the graph around the candidate
node so the cost stays bounded: the view holds the node and its
earlier-rank nodes within VIEW_HOPS = 2 hops, and the view's dense
weight matrix W scores each candidate class by the field of W with only
its cross-class weights kept. The greedy starts at node 0; the seed, the
view and DELTA are fixed.

A node's score depends only on the classes of its view, so nodes fall
into dependency levels: level 0 when the view is the node alone, else 1
+ the highest level in the view. No two nodes of a level are in each
other's view, so one batched step scores a whole level: the views are
zero-padded into one stack and factored by one Cholesky call.

approximate_bipartite, its Bipartition result and bipartition_lines (the
inspect dump) are the module's interface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix, identity
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .graph import WeightedGraph

RED = 0
BLUE = 1
CLASS_NAMES = ("red", "blue")

# Relative tolerance under which the two candidate divergences count as equal.
TIE_RTOL = 1e-12

# A candidate's view: the earlier-rank nodes within this many hops of it.
VIEW_HOPS = 2

DELTA = 0.01  # regularizer of every precision L + DELTA*I; it only makes it invertible


@dataclass(eq=False)
class Bipartition:
    """Node class assignment: 0 = red, 1 = blue, one entry per node.

    approximate_bipartite also keeps its decisions: order lists the nodes
    in the order they were assigned, and d_red[t] / d_blue[t] are the
    divergences of putting node order[t] in red / in blue. The seed,
    order[0], is not scored and reads NaN in both.
    """

    assignment: np.ndarray
    levels: int = 0  # dependency levels the greedy scored, the seed's included
    order: np.ndarray | None = None
    d_red: np.ndarray | None = None
    d_blue: np.ndarray | None = None

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


def _divergences(p: np.ndarray) -> np.ndarray:
    """Divergences of the fields p[g]^-1, g >= 1, from the field p[0]^-1.

    p stacks precision matrices as (G + 1, ..., n, n). Returns the (G, ...)
    values 0.5 * (tr(P_g Sigma) + logdet(P_o) - logdet(P_g) - n) with
    P_o = p[0] and Sigma = P_o^-1. Raises LinAlgError unless every matrix
    is positive definite.
    """
    chol = np.linalg.cholesky(p)
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)
    trace = np.sum(p[1:] * np.linalg.inv(p[0]), axis=(-2, -1))
    return 0.5 * (trace + logdet[0] - logdet[1:] - p.shape[-1])


def _entries(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions starts[i] + 0 .. counts[i] - 1 for each i in turn, and each one's i."""
    owner = np.repeat(np.arange(starts.size), counts)
    return np.arange(counts.sum()) + (starts - np.cumsum(counts) + counts)[owner], owner


def _balls(adj: csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Sorted CSR pattern (indices, indptr) of (I + A)^VIEW_HOPS.

    Row c holds every node within VIEW_HOPS of c. Only the pattern is
    returned, so the product's values are freed on return.
    """
    n = adj.shape[0]
    step = csr_matrix((np.ones(adj.nnz), adj.indices, adj.indptr),
                      shape=(n, n)) + identity(n, format="csr")
    reach = step
    for _ in range(VIEW_HOPS - 1):
        reach = reach @ step
        reach.data[:] = 1.0
    reach.sort_indices()
    return reach.indices, reach.indptr


class _LevelGreedy:
    """Working state of one bipartition run, with nodes relabelled by BFS rank."""

    def __init__(self, adj: csr_matrix, order: np.ndarray):
        n = order.size
        self.adj = adj[order][:, order]
        self.adj.sort_indices()
        self.degree = np.diff(self.adj.indptr)
        self.ball, indptr = _balls(self.adj)
        self.ball_start, self.ball_count = indptr[:-1], np.diff(indptr)
        # In rank labels a node's view, its in-ball nodes of rank <= its own,
        # is a prefix of its sorted ball that ends with the node itself; the
        # rest of the ball lists the later nodes whose views hold it.
        rows = np.repeat(np.arange(n, dtype=self.ball.dtype), self.ball_count)
        self.view_count = np.flatnonzero(self.ball == rows) - self.ball_start + 1
        self.waiting = self.view_count - 1  # unassigned nodes in each view
        self.assign = np.full(n, -1, dtype=np.int8)
        self.done = 0
        self.levels = 0
        self.tie_next = RED  # alternation state: first tie goes to red
        # the decisions: rank of each assigned node, and both divergences
        self.decided = np.empty(n, dtype=np.int64)
        self.d = np.full((2, n), np.nan)

    def run_component(self, root: int) -> None:
        """Assign the component whose BFS starts at rank root, level by level."""
        level = np.array([root])
        while level.size:
            self.assign_level(level)
            # The nodes whose views assigning this level completed, by rank.
            count = self.view_count[level]
            pos, _ = _entries(self.ball_start[level] + count, self.ball_count[level] - count)
            nodes, hits = np.unique(self.ball[pos], return_counts=True)
            self.waiting[nodes] -= hits
            level = nodes[self.waiting[nodes] == 0]

    def assign_level(self, level: np.ndarray) -> None:
        """Assign the nodes of one level in rank order."""
        self.levels += 1
        at = slice(self.done, self.done + level.size)
        self.decided[at] = level
        if self.done == 0:
            # The very first node initializes the red class.
            self.assign[level] = RED
            self.done = 1
            return
        self.d[:, at] = self.divergences(level)
        d_red, d_blue = self.d[:, at]
        tie = np.abs(d_blue - d_red) <= TIE_RTOL * np.maximum(1.0, np.abs(d_red))
        g = np.where(d_blue > d_red, RED, BLUE).astype(np.int8)
        for i in np.flatnonzero(tie):
            g[i] = self.tie_next
            self.tie_next = BLUE if self.tie_next == RED else RED
        self.assign[level] = g
        self.done += level.size
        # Keep both classes non-empty: the last node may not land a tie into
        # the only populated class.
        if self.done == self.assign.size and tie[-1] and np.all(self.assign == g[-1]):
            self.assign[level[-1]] = BLUE if g[-1] == RED else RED

    def divergences(self, level: np.ndarray) -> np.ndarray:
        """(2, B) divergences of assigning each level node to red / to blue.

        Each view's weights W give P_o = L(W) + DELTA*I; candidate g gives
        P_g = L(W masked to pairs of differing class, the node in class g)
        + DELTA*I. Views are zero-padded to the level's largest one; a padded
        row is an isolated node with DELTA on the diagonal and cancels out.
        """
        n, b = self.assign.size, level.size
        starts, sizes = self.ball_start[level], self.view_count[level]
        pos, owner = _entries(starts, sizes)
        members = self.ball[pos]
        local = pos - starts[owner]
        # Every adjacency entry of a member whose column lies in the same view
        # is a weight of W; the keys owner * n + member ascend.
        keys = owner * n + members
        apos, row = _entries(self.adj.indptr[members], self.degree[members])
        akeys = owner[row] * n + self.adj.indices[apos]
        col = np.minimum(np.searchsorted(keys, akeys), keys.size - 1)
        inside = keys[col] == akeys
        row, col, w = row[inside], col[inside], self.adj.data[apos[inside]]

        nmax = int(sizes.max())
        at = (owner[row] * nmax + local[row]) * nmax + local[col]
        p = np.zeros((3, b * nmax * nmax))
        p[0, at] = w
        cls = self.assign[members]
        own = np.cumsum(sizes) - 1  # each view ends with its node
        for g in (RED, BLUE):
            cls[own] = g
            cross = cls[row] != cls[col]
            p[1 + g, at[cross]] = w[cross]
        p = p.reshape(3, b, nmax, nmax)
        # W has a zero diagonal (graphs have no self-loops)
        diagonal = p.sum(axis=-1) + DELTA
        np.negative(p, out=p)
        i = np.arange(nmax)
        p[..., i, i] = diagonal
        return _divergences(p)


def approximate_bipartite(graph: WeightedGraph) -> Bipartition:
    """Greedy BFS bipartition driven by the divergence criterion.

    Node 0 goes to red. Every later node joins red if the blue candidate
    diverges more, blue otherwise; near-equal divergences alternate, red
    first. The candidates are scored on VIEW_HOPS-hop views. Disconnected
    graphs are processed per component, in the order of their lowest-index
    nodes, each BFS seeded there. Within a component the nodes are assigned
    one dependency level at a time, in (level, BFS rank) order; the tie
    alternation, the forced rule and the recorded decisions follow that
    order, which differs from plain BFS rank order only for a component
    with two or more ties. Deterministic for a fixed input.
    """
    n = graph.node_count
    adj = graph.adjacency
    _, labels = connected_components(adj, directed=False)
    _, firsts = np.unique(labels, return_index=True)
    # One BFS per component, neighbours queued in ascending index order; the
    # concatenated orders rank every node, node 0 first.
    components = [breadth_first_order(adj, s, directed=True, return_predecessors=False)
                  for s in np.sort(firsts)]
    order = np.concatenate(components)
    state = _LevelGreedy(adj, order)
    for root in np.cumsum([0] + [c.size for c in components[:-1]]):
        state.run_component(int(root))

    assignment = np.empty(n, dtype=np.int8)
    assignment[order] = state.assign
    d_red, d_blue = state.d
    return Bipartition(assignment, state.levels, order[state.decided], d_red, d_blue)


def bipartition_lines(bp: Bipartition):
    """Yield 'node class' debug lines."""
    for i, g in enumerate(bp.assignment):
        yield f"{i} {CLASS_NAMES[g]}"
