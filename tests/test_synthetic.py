"""Tests for the synthetic cloud generators."""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from gtvdenoise.synthetic import fibonacci_sphere, jittered_plane, rounded_box, sphere_with_spacing


def lattice(nx, ny, spacing):
    """The nx-by-ny grid on z = 0, x-major: point i * ny + j at (i, j, 0) * spacing."""
    xs, ys = np.meshgrid(np.arange(nx) * spacing, np.arange(ny) * spacing, indexing="ij")
    return np.column_stack([xs.ravel(), ys.ravel(), np.zeros(nx * ny)])


class TestPlanes:
    def test_jittered_plane_zero_jitter_is_lattice(self):
        a = jittered_plane(4, 5, spacing=0.7, jitter=0.0, seed=3)
        np.testing.assert_array_equal(a.positions, lattice(4, 5, 0.7))

    def test_jittered_plane_bounded_jitter(self):
        spacing, jitter = 0.7, 0.1
        moved = jittered_plane(10, 10, spacing=spacing, jitter=jitter, seed=8)
        delta = np.abs(moved.positions - lattice(10, 10, spacing))
        assert np.all(delta[:, :2] <= jitter * spacing)
        assert np.all(moved.positions[:, 2] == 0.0)
        assert np.any(delta[:, :2] > 0.0)

    def test_jittered_plane_seed_determinism(self):
        a = jittered_plane(6, 6, 1.0, 0.2, seed=4)
        b = jittered_plane(6, 6, 1.0, 0.2, seed=4)
        c = jittered_plane(6, 6, 1.0, 0.2, seed=5)
        np.testing.assert_array_equal(a.positions, b.positions)
        assert not np.array_equal(a.positions, c.positions)


class TestSpheres:
    def test_fibonacci_sphere_radius(self):
        cloud = fibonacci_sphere(500, radius=2.5)
        norms = np.linalg.norm(cloud.positions, axis=1)
        np.testing.assert_allclose(norms, 2.5, rtol=1e-12)

    def test_sphere_with_spacing_mean_gap(self):
        cloud = sphere_with_spacing(2000, spacing=1.0)
        d, _ = cKDTree(cloud.positions).query(cloud.positions, k=2)
        assert 0.8 < np.mean(d[:, 1]) < 1.2


class TestRoundedBox:
    def _surface_distance(self, pts, half, radius):
        # signed distance to a box of half-size `half` rounded by `radius`
        outside = np.maximum(np.abs(pts) - half, 0.0)
        return np.linalg.norm(outside, axis=1) - radius

    def test_point_count_near_target(self):
        cloud = rounded_box(3000, spacing=0.7, edge_radius=2.1, seed=5)
        assert abs(len(cloud.positions) - 3000) < 300

    def test_points_lie_on_surface(self):
        spacing = 0.7
        cloud = rounded_box(3000, spacing=spacing, edge_radius=2.1, seed=5)
        extent = cloud.positions.max(axis=0) - cloud.positions.min(axis=0)
        half = (np.max(extent) - 2 * 2.1) / 2.0
        sdf = self._surface_distance(cloud.positions, half, 2.1)
        assert np.max(np.abs(sdf)) < 0.08 * spacing

    def test_same_area_same_solid(self):
        # equal n * spacing^2 and equal edge radius describe one shape
        coarse = rounded_box(3000, spacing=0.7, edge_radius=2.1, seed=5)
        fine = rounded_box(48000, spacing=0.175, edge_radius=2.1, seed=7)
        ec = coarse.positions.max(axis=0) - coarse.positions.min(axis=0)
        ef = fine.positions.max(axis=0) - fine.positions.min(axis=0)
        np.testing.assert_allclose(ec, ef, atol=0.5)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            rounded_box(1000, spacing=0.5, edge_radius=0.0)
        with pytest.raises(ValueError):
            rounded_box(10, spacing=0.5, edge_radius=5.0)
