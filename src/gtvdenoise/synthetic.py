"""Deterministic synthetic clouds for tests and benchmarks."""

from __future__ import annotations

import numpy as np

from .cloud import PointCloud


def jittered_plane(
    nx: int, ny: int, spacing: float = 1.0, jitter: float = 0.0, seed: int = 0
) -> PointCloud:
    """nx-by-ny grid on z = 0 with uniform in-plane jitter.

    `jitter` is a fraction of the spacing; each lattice point moves by
    uniform(-jitter, jitter) * spacing independently in x and y. Jitter
    breaks the exact lattice ties that make nearest-neighbor queries and
    plane fits artificially ambiguous.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    gx, gy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    xy = np.column_stack([gx.ravel(), gy.ravel()]).astype(np.float64) * spacing
    if jitter:
        xy += rng.uniform(-jitter, jitter, size=xy.shape) * spacing
    return PointCloud(np.column_stack([xy, np.zeros(nx * ny)]))


def rounded_box(
    n: int, spacing: float, edge_radius: float, seed: int = 0
) -> PointCloud:
    """Closed rounded-box surface sampled near-uniformly, about n points.

    A cube with edges and corners rounded to `edge_radius`: six flat
    faces, twelve quarter-cylinder edges, eight eighth-sphere corners.
    The core half-size is solved from the target area n * spacing^2, so
    clouds generated with the same n * spacing^2 product and the same
    edge_radius describe the same solid at different sampling densities.
    Faces and edges are jittered lattices; corners are area-uniform
    random samples. Point count is approximate (lattice rounding).
    """
    if edge_radius <= 0.0 or spacing <= 0.0:
        raise ValueError("spacing and edge_radius must be positive")
    rng = np.random.Generator(np.random.PCG64(seed))
    s = float(spacing)
    r = float(edge_radius)
    # area: 6a^2 + 12 (pi r / 2) a + 4 pi r^2 = n s^2, solved for a
    c1 = 6.0 * np.pi * r
    c0 = 4.0 * np.pi * r * r - n * s * s
    disc = c1 * c1 - 24.0 * c0
    if disc <= 0.0:
        raise ValueError("n too small for this spacing and edge radius")
    a = (-c1 + np.sqrt(disc)) / 12.0
    if a <= s:
        raise ValueError("n too small for this spacing and edge radius")
    pts = []
    m = max(2, int(round(a / s)))
    grid = (np.arange(m) + 0.5) / m * a - a / 2.0
    gx, gy = np.meshgrid(grid, grid, indexing="ij")
    base = np.column_stack([gx.ravel(), gy.ravel()])
    for axis in range(3):
        for sign in (-1.0, 1.0):
            uv = base + rng.uniform(-0.3, 0.3, size=base.shape) * s
            face = np.zeros((uv.shape[0], 3))
            other = [i for i in range(3) if i != axis]
            face[:, other[0]] = uv[:, 0]
            face[:, other[1]] = uv[:, 1]
            face[:, axis] = sign * (a / 2.0 + r)
            pts.append(face)
    n_len = max(2, int(round(a / s)))
    n_arc = max(2, int(round((np.pi * r / 2.0) / s)))
    tvals = (np.arange(n_len) + 0.5) / n_len * a - a / 2.0
    phis = (np.arange(n_arc) + 0.5) / n_arc * (np.pi / 2.0)
    for axis in range(3):
        other = [i for i in range(3) if i != axis]
        for s0 in (-1.0, 1.0):
            for s1 in (-1.0, 1.0):
                t, ph = np.meshgrid(tvals, phis, indexing="ij")
                t = t + rng.uniform(-0.3, 0.3, size=t.shape) * s
                ph = ph + rng.uniform(-0.3, 0.3, size=ph.shape) * (s / r)
                e = np.zeros((t.size, 3))
                e[:, axis] = t.ravel()
                # cos and sin both positive on [0, pi/2]: outward bulge
                e[:, other[0]] = s0 * (a / 2.0 + r * np.cos(ph.ravel()))
                e[:, other[1]] = s1 * (a / 2.0 + r * np.sin(ph.ravel()))
                pts.append(e)
    n_cor = max(3, int(round((np.pi * r * r / 2.0) / (s * s))))
    for sx in (-1.0, 1.0):
        for sy in (-1.0, 1.0):
            for sz in (-1.0, 1.0):
                v = rng.normal(size=(n_cor, 3))
                v = np.abs(v) / np.linalg.norm(v, axis=1, keepdims=True)
                c = np.array([sx, sy, sz])
                pts.append(c * (a / 2.0) + (c * v) * r)
    return PointCloud(np.vstack(pts))


def fibonacci_sphere(n: int, radius: float) -> PointCloud:
    """Quasi-uniform points on a sphere (Fibonacci lattice).

    Mean nearest-neighbor spacing is about radius * sqrt(4 pi / n).
    """
    i = np.arange(n, dtype=np.float64)
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    z = 1.0 - (2.0 * i + 1.0) / n
    theta = 2.0 * np.pi * i / phi
    r_xy = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    pts = radius * np.column_stack([r_xy * np.cos(theta), r_xy * np.sin(theta), z])
    return PointCloud(pts)


def sphere_with_spacing(n: int, spacing: float = 1.0) -> PointCloud:
    """Fibonacci sphere sized so the mean point spacing is roughly `spacing`."""
    radius = spacing * np.sqrt(n / (4.0 * np.pi))
    return fibonacci_sphere(n, radius)
