"""Denoising quality metrics.

c2c: mean nearest-neighbor distance between clouds, squared or not,
reported per direction and symmetrized (average of both directions).

c2p: mean squared distance from each point of one cloud to the tangent
plane at its nearest point in the other cloud. The tangent plane passes
through that nearest point with the normal from a least-squares plane
fit (centroid plus smallest principal direction) of the point and its k
nearest same-cloud neighbors; a point-to-plane distance therefore never
exceeds the corresponding point-to-point distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import SpatialIndex, WeightedGraph


@dataclass(frozen=True)
class DirectedMetric:
    """A metric evaluated ground->test, test->ground, and symmetrized."""

    forward: float
    backward: float

    @property
    def symmetric(self) -> float:
        return 0.5 * (self.forward + self.backward)


@dataclass(frozen=True)
class MetricReport:
    c2c_mean_dist: DirectedMetric
    c2c_mean_sq: DirectedMetric
    c2p_mean_sq: DirectedMetric
    degenerate_planes: int

    def to_table(self) -> str:
        rows = [
            ("c2c mean distance", self.c2c_mean_dist),
            ("c2c mean squared", self.c2c_mean_sq),
            ("c2p mean squared", self.c2p_mean_sq),
        ]
        lines = [f"{'metric':<20} {'ground->test':>14} {'test->ground':>14} {'symmetric':>14}"]
        for name, m in rows:
            lines.append(
                f"{name:<20} {m.forward:>14.6e} {m.backward:>14.6e} {m.symmetric:>14.6e}"
            )
        if self.degenerate_planes:
            lines.append(f"degenerate plane fits: {self.degenerate_planes}")
        return "\n".join(lines)

    def csv_row(self, model: str, sigma: float, runtime_s: float) -> str:
        """Row for the 'model,sigma,c2c_unsq,c2c_sq,c2p,runtime_s' schema."""
        return (
            f"{model},{sigma:g},{self.c2c_mean_dist.symmetric:.9e},"
            f"{self.c2c_mean_sq.symmetric:.9e},{self.c2p_mean_sq.symmetric:.9e},"
            f"{runtime_s:.3f}"
        )


CSV_HEADER = "model,sigma,c2c_unsq,c2c_sq,c2p,runtime_s"


def _positions(cloud) -> np.ndarray:
    return np.asarray(getattr(cloud, "positions", cloud), dtype=np.float64)


def _nn_distances(a: np.ndarray, b_index: SpatialIndex) -> tuple[np.ndarray, np.ndarray]:
    idx = b_index.nearest(a)
    dist = np.linalg.norm(a - b_index.points[idx], axis=1)
    return dist, idx


def c2c(ground, test, squared: bool = False) -> DirectedMetric:
    """Mean nearest-neighbor distance in both directions.

    Identical clouds give exactly zero. Each direction averages over the
    source cloud; 'symmetric' averages the two directions.
    """
    a = _positions(ground)
    b = _positions(test)
    da, _ = _nn_distances(a, SpatialIndex(b))
    db, _ = _nn_distances(b, SpatialIndex(a))
    if squared:
        return DirectedMetric(float(np.mean(da**2)), float(np.mean(db**2)))
    return DirectedMetric(float(np.mean(da)), float(np.mean(db)))


def _plane_normals(points: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-point unit normal from the LS plane of the point + k nearest neighbors.

    Returns (normals, degenerate mask); degenerate = all neighborhood
    points coincide, leaving no plane direction.
    """
    n = points.shape[0]
    k_eff = min(k, n - 1)
    if k_eff < 1:
        return np.zeros((n, 3)), np.ones(n, dtype=bool)
    nbr = SpatialIndex(points).query_knn(points, k_eff, exclude_self=True)
    hood = np.concatenate([points[:, None, :], points[nbr]], axis=1)  # (n, k+1, 3)
    centered = hood - hood.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered)
    eigvals, eigvecs = np.linalg.eigh(cov)
    normals = eigvecs[:, :, 0]  # smallest principal direction
    degenerate = eigvals[:, 2] <= 0.0
    return normals, degenerate


def c2p(ground, test, k: int = 8) -> tuple[DirectedMetric, int]:
    """Mean squared point-to-tangent-plane distance, both directions.

    Degenerate plane fits fall back to the squared point-to-point
    distance; their count is returned alongside the metric.
    """
    a = _positions(ground)
    b = _positions(test)
    degenerate_total = 0
    means = []
    for src, dst in ((a, b), (b, a)):
        index = SpatialIndex(dst)
        dist, idx = _nn_distances(src, index)
        normals, degenerate = _plane_normals(dst, k)
        offset = src - dst[idx]
        d_plane = np.abs(np.einsum("ni,ni->n", normals[idx], offset))
        bad = degenerate[idx]
        d_plane = np.where(bad, dist, d_plane)
        degenerate_total += int(np.count_nonzero(bad))
        # Planes pass through the matched point, so they can never be
        # farther than the point itself, up to a few ulps of rounding.
        assert np.all(d_plane <= dist * (1.0 + 8.0 * np.finfo(np.float64).eps))
        means.append(float(np.mean(d_plane**2)))
    return DirectedMetric(means[0], means[1]), degenerate_total


def evaluate(ground, test, k: int = 8) -> MetricReport:
    """Full metric set between a reference cloud and a test cloud."""
    a = _positions(ground)
    b = _positions(test)
    da, _ = _nn_distances(a, SpatialIndex(b))
    db, _ = _nn_distances(b, SpatialIndex(a))
    c2p_metric, degenerate = c2p(a, b, k)
    return MetricReport(
        c2c_mean_dist=DirectedMetric(float(np.mean(da)), float(np.mean(db))),
        c2c_mean_sq=DirectedMetric(float(np.mean(da**2)), float(np.mean(db**2))),
        c2p_mean_sq=c2p_metric,
        degenerate_planes=degenerate,
    )


def gtv_value(normals: np.ndarray, graph: WeightedGraph) -> float:
    """Graph total variation: sum over edges of w_ij * ||n_i - n_j||_1.

    Each undirected edge counts once. Zero when all normals coincide.
    """
    normals = np.asarray(normals, dtype=np.float64)
    if normals.shape != (graph.node_count, 3):
        raise ValueError(
            f"need one normal per node: got {normals.shape}, {graph.node_count} nodes"
        )
    if not np.all(np.isfinite(normals)):
        raise ValueError("normals contain non-finite values")
    if graph.edge_count == 0:
        return 0.0
    diff = np.abs(normals[graph.ei] - normals[graph.ej]).sum(axis=1)
    return float(graph.w @ diff)


__all__ = [
    "DirectedMetric",
    "MetricReport",
    "CSV_HEADER",
    "c2c",
    "c2p",
    "evaluate",
    "gtv_value",
]
