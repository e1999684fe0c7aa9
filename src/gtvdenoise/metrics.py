"""Denoising quality metrics; evaluate is the one entry point.

evaluate(ground, test, k) matches every point to its nearest point in the
other cloud, once per direction, and reports both metrics per direction
and symmetrized (average of both directions) in a MetricReport:

c2c: mean nearest-neighbor distance between clouds, squared or not.
Identical clouds give exactly zero.

c2p: mean squared distance from each point of one cloud to the tangent
plane at its nearest point in the other cloud. The tangent plane passes
through that nearest point with the normal from a least-squares plane
fit (centroid plus smallest principal direction) of the point and its k
nearest same-cloud neighbors; a point-to-plane distance therefore never
exceeds the corresponding point-to-point distance. A fit whose points
all coincide has no plane and falls back to the squared point-to-point
distance; MetricReport.degenerate_planes counts such matches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud
from .graph import SpatialIndex


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
# bench's CSV leaves runtime out, so that reruns are byte-identical
BENCH_CSV_HEADER = "model,sigma,seed,c2c_noisy,c2c_denoised,c2p_noisy,c2p_denoised"


def _plane_normals(index: SpatialIndex, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-point unit normal from the LS plane of the point + k nearest neighbors.

    Returns (normals, degenerate mask); degenerate = all neighborhood
    points coincide, leaving no plane direction.
    """
    points = index.points
    n = points.shape[0]
    k_eff = min(k, n - 1)
    if k_eff < 1:
        return np.zeros((n, 3)), np.ones(n, dtype=bool)
    nbr = index.query_knn(points, k_eff, exclude_self=True)
    hood = np.concatenate([points[:, None, :], points[nbr]], axis=1)  # (n, k+1, 3)
    centered = hood - hood.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered)
    eigvals, eigvecs = np.linalg.eigh(cov)
    normals = eigvecs[:, :, 0]  # smallest principal direction
    degenerate = eigvals[:, 2] <= 0.0
    return normals, degenerate


def evaluate(ground: PointCloud, test: PointCloud, k: int = 8) -> MetricReport:
    """Full metric set between a reference and a test cloud; one match per direction."""
    a, b = ground.positions, test.positions
    c2c_dist, c2c_sq, c2p_sq = [], [], []
    degenerate_total = 0
    for src, dst in ((a, SpatialIndex(b)), (b, SpatialIndex(a))):  # ground->test first
        idx = dst.nearest(src)
        offset = src - dst.points[idx]
        dist = np.linalg.norm(offset, axis=1)
        c2c_dist.append(float(np.mean(dist)))
        c2c_sq.append(float(np.mean(dist**2)))
        normals, degenerate = _plane_normals(dst, k)
        d_plane = np.abs(np.einsum("ni,ni->n", normals[idx], offset))
        bad = degenerate[idx]
        d_plane = np.where(bad, dist, d_plane)
        degenerate_total += int(np.count_nonzero(bad))
        # Planes pass through the matched point, so they can never be
        # farther than the point itself, up to a few ulps of rounding.
        assert np.all(d_plane <= dist * (1.0 + 8.0 * np.finfo(np.float64).eps))
        c2p_sq.append(float(np.mean(d_plane**2)))
    return MetricReport(
        c2c_mean_dist=DirectedMetric(*c2c_dist),
        c2c_mean_sq=DirectedMetric(*c2c_sq),
        c2p_mean_sq=DirectedMetric(*c2p_sq),
        degenerate_planes=degenerate_total,
    )


__all__ = [
    "DirectedMetric",
    "MetricReport",
    "CSV_HEADER",
    "evaluate",
]
