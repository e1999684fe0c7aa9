"""Cloud-to-cloud and cloud-to-plane error metrics."""

import numpy as np
import pytest

from gtvdenoise.cloud import PointCloud
from gtvdenoise.graph import WeightedGraph
from gtvdenoise.metrics import (
    CSV_HEADER,
    DirectedMetric,
    c2c,
    c2p,
    evaluate,
    gtv_value,
)


class TestC2C:
    def test_identical_clouds_zero(self):
        pts = np.random.default_rng(0).normal(size=(30, 3))
        m = c2c(pts, pts)
        assert m.forward == 0.0 and m.backward == 0.0 and m.symmetric == 0.0

    def test_known_shift(self):
        # two points each, uniform shift of 0.5 along x, partners unique
        a = np.array([[0, 0, 0], [10, 0, 0.0]])
        b = a + [0.5, 0, 0]
        m = c2c(a, b)
        assert m.forward == pytest.approx(0.5)
        assert m.backward == pytest.approx(0.5)
        assert m.symmetric == pytest.approx(0.5)

    def test_squared_variant(self):
        a = np.array([[0, 0, 0], [10, 0, 0.0]])
        b = a + [0.5, 0, 0]
        m = c2c(a, b, squared=True)
        assert m.symmetric == pytest.approx(0.25)

    def test_asymmetry_visible_per_direction(self):
        # b has an outlier far away: test->ground direction suffers,
        # ground->test barely changes
        a = np.random.default_rng(1).normal(size=(50, 3))
        b = np.vstack([a, [100.0, 0, 0]])
        m = c2c(a, b)
        assert m.forward == pytest.approx(0.0, abs=1e-12)
        assert m.backward > 1.0

    def test_accepts_cloud_objects(self):
        pts = np.random.default_rng(2).normal(size=(10, 3))
        m = c2c(PointCloud(pts), PointCloud(pts + 0.1))
        assert m.symmetric > 0


class TestC2P:
    def test_identical_clouds_zero(self):
        pts = np.random.default_rng(3).normal(size=(40, 3))
        m, degenerate = c2p(pts, pts)
        assert m.symmetric == pytest.approx(0.0, abs=1e-20)
        assert degenerate == 0

    def test_plane_ignores_in_plane_offsets(self):
        # dense flat grid vs the same grid shifted IN the plane: c2c sees
        # the shift, c2p does not
        xs, ys = np.meshgrid(np.arange(20.0), np.arange(20.0), indexing="ij")
        a = np.column_stack([xs.ravel(), ys.ravel(), np.zeros(400)])
        b = a + [0.3, 0.2, 0.0]
        m, _ = c2p(a, b)
        assert m.symmetric == pytest.approx(0.0, abs=1e-12)
        assert c2c(a, b).symmetric > 0.1

    def test_out_of_plane_offset_measured_squared(self):
        xs, ys = np.meshgrid(np.arange(20.0), np.arange(20.0), indexing="ij")
        a = np.column_stack([xs.ravel(), ys.ravel(), np.zeros(400)])
        b = a + [0.0, 0.0, 0.25]
        m, _ = c2p(a, b)
        assert m.symmetric == pytest.approx(0.25**2, rel=1e-6)

    def test_never_exceeds_point_distance(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(60, 3))
        b = rng.normal(size=(60, 3))
        mp, _ = c2p(a, b)
        mc = c2c(a, b, squared=True)
        assert mp.forward <= mc.forward + 1e-12
        assert mp.backward <= mc.backward + 1e-12

    def test_far_apart_clouds_stay_within_the_point_distance(self):
        # a patch 1e4 away along its normal: the plane distance equals the
        # point distance up to rounding, which an absolute slack of 1e-12
        # did not cover at this scale
        rng = np.random.default_rng(0)
        xs, ys = np.meshgrid(np.arange(20.0), np.arange(20.0), indexing="ij")
        patch = np.column_stack([xs.ravel(), ys.ravel(), np.zeros(400)])
        for _ in range(20):
            rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            a = patch @ rot.T
            b = a + 1e4 * rot[:, 2] + 1e-3 * rng.normal(size=a.shape)
            m, degenerate = c2p(a, b)
            assert degenerate == 0
            assert m.symmetric == pytest.approx(1e8, rel=1e-6)

    def test_degenerate_fallback_counted(self):
        # every dst point identical: no plane, falls back to point distance
        a = np.array([[0, 0, 1.0], [0, 0, 2.0], [0, 0, 3.0], [1, 1, 1.0]])
        b = np.zeros((4, 3))
        m, degenerate = c2p(a, b)
        assert degenerate > 0
        expected_fwd = float(np.mean(np.linalg.norm(a, axis=1) ** 2))
        assert m.forward == pytest.approx(expected_fwd)


class TestEvaluate:
    def test_report_consistent_with_parts(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(50, 3))
        b = a + rng.normal(scale=0.05, size=(50, 3))
        report = evaluate(a, b)
        assert report.c2c_mean_dist.symmetric == pytest.approx(c2c(a, b).symmetric)
        assert report.c2c_mean_sq.symmetric == pytest.approx(
            c2c(a, b, squared=True).symmetric
        )
        assert report.c2p_mean_sq.symmetric == pytest.approx(c2p(a, b)[0].symmetric)

    def test_table_and_csv_layout(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(20, 3))
        report = evaluate(a, a + 0.01)
        table = report.to_table()
        assert "ground->test" in table and "c2p mean squared" in table
        row = report.csv_row("bunny", 0.1, 1.234)
        fields = row.split(",")
        assert len(fields) == len(CSV_HEADER.split(","))
        assert fields[0] == "bunny" and fields[1] == "0.1" and fields[5] == "1.234"
        float(fields[2]), float(fields[3]), float(fields[4])


class TestGtvValue:
    def test_constant_normals_zero(self):
        g = WeightedGraph(3, [0, 1], [1, 2], [0.5, 0.5])
        normals = np.tile([0.0, 0, 1], (3, 1))
        assert gtv_value(normals, g) == 0.0

    def test_hand_computed(self):
        g = WeightedGraph(2, [0], [1], [0.5])
        normals = np.array([[1.0, 0, 0], [0, 1.0, 0]])
        # l1 difference = |1| + |-1| + 0 = 2, times w = 0.5
        assert gtv_value(normals, g) == pytest.approx(1.0)

    def test_edgeless_graph_zero(self):
        g = WeightedGraph(2, [], [], [])
        assert gtv_value(np.ones((2, 3)), g) == 0.0

    def test_shape_and_finiteness_checks(self):
        g = WeightedGraph(2, [0], [1], [0.5])
        with pytest.raises(ValueError):
            gtv_value(np.ones((3, 3)), g)
        bad = np.ones((2, 3))
        bad[0, 0] = np.inf
        with pytest.raises(ValueError):
            gtv_value(bad, g)


def test_directed_metric_symmetric_mean():
    m = DirectedMetric(1.0, 3.0)
    assert m.symmetric == 2.0
