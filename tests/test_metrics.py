"""Cloud-to-cloud and cloud-to-plane error metrics."""

import numpy as np
import pytest

from gtvdenoise.cloud import PointCloud
from gtvdenoise.metrics import CSV_HEADER, DirectedMetric, evaluate


class TestC2C:
    def test_identical_clouds_zero(self):
        pts = np.random.default_rng(0).normal(size=(30, 3))
        m = evaluate(PointCloud(pts), PointCloud(pts)).c2c_mean_dist
        assert m.forward == 0.0 and m.backward == 0.0 and m.symmetric == 0.0

    def test_known_shift(self):
        # two points each, uniform shift of 0.5 along x, partners unique
        a = np.array([[0, 0, 0], [10, 0, 0.0]])
        b = a + [0.5, 0, 0]
        m = evaluate(PointCloud(a), PointCloud(b)).c2c_mean_dist
        assert m.forward == pytest.approx(0.5)
        assert m.backward == pytest.approx(0.5)
        assert m.symmetric == pytest.approx(0.5)

    def test_squared_variant(self):
        a = np.array([[0, 0, 0], [10, 0, 0.0]])
        b = a + [0.5, 0, 0]
        m = evaluate(PointCloud(a), PointCloud(b)).c2c_mean_sq
        assert m.symmetric == pytest.approx(0.25)

    def test_asymmetry_visible_per_direction(self):
        # b has an outlier far away: test->ground direction suffers,
        # ground->test barely changes
        a = np.random.default_rng(1).normal(size=(50, 3))
        b = np.vstack([a, [100.0, 0, 0]])
        m = evaluate(PointCloud(a), PointCloud(b)).c2c_mean_dist
        assert m.forward == pytest.approx(0.0, abs=1e-12)
        assert m.backward > 1.0

    def test_accepts_cloud_objects(self):
        pts = np.random.default_rng(2).normal(size=(10, 3))
        m = evaluate(PointCloud(pts), PointCloud(pts + 0.1)).c2c_mean_dist
        assert m.symmetric > 0


class TestC2P:
    def test_identical_clouds_zero(self):
        pts = np.random.default_rng(3).normal(size=(40, 3))
        report = evaluate(PointCloud(pts), PointCloud(pts))
        assert report.c2p_mean_sq.symmetric == pytest.approx(0.0, abs=1e-20)
        assert report.degenerate_planes == 0

    def test_plane_ignores_in_plane_offsets(self):
        # dense flat grid vs the same grid shifted IN the plane: c2c sees
        # the shift, c2p does not
        xs, ys = np.meshgrid(np.arange(20.0), np.arange(20.0), indexing="ij")
        a = np.column_stack([xs.ravel(), ys.ravel(), np.zeros(400)])
        b = a + [0.3, 0.2, 0.0]
        report = evaluate(PointCloud(a), PointCloud(b))
        assert report.c2p_mean_sq.symmetric == pytest.approx(0.0, abs=1e-12)
        assert report.c2c_mean_dist.symmetric > 0.1

    def test_out_of_plane_offset_measured_squared(self):
        xs, ys = np.meshgrid(np.arange(20.0), np.arange(20.0), indexing="ij")
        a = np.column_stack([xs.ravel(), ys.ravel(), np.zeros(400)])
        b = a + [0.0, 0.0, 0.25]
        m = evaluate(PointCloud(a), PointCloud(b)).c2p_mean_sq
        assert m.symmetric == pytest.approx(0.25**2, rel=1e-6)

    def test_never_exceeds_point_distance(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(60, 3))
        b = rng.normal(size=(60, 3))
        report = evaluate(PointCloud(a), PointCloud(b))
        mp, mc = report.c2p_mean_sq, report.c2c_mean_sq
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
            report = evaluate(PointCloud(a), PointCloud(b))
            assert report.degenerate_planes == 0
            assert report.c2p_mean_sq.symmetric == pytest.approx(1e8, rel=1e-6)

    def test_degenerate_fallback_counted(self):
        # every dst point identical: no plane, falls back to point distance
        a = np.array([[0, 0, 1.0], [0, 0, 2.0], [0, 0, 3.0], [1, 1, 1.0]])
        b = np.zeros((4, 3))
        report = evaluate(PointCloud(a), PointCloud(b))
        assert report.degenerate_planes > 0
        expected_fwd = float(np.mean(np.linalg.norm(a, axis=1) ** 2))
        assert report.c2p_mean_sq.forward == pytest.approx(expected_fwd)


class TestEvaluate:
    def test_report_consistent_with_parts(self):
        # every entry against brute-force nearest points and SVD plane fits
        # of each matched point with its 8 nearest same-cloud neighbors
        rng = np.random.default_rng(5)
        a = rng.normal(size=(50, 3))
        b = a + rng.normal(scale=0.05, size=(50, 3))
        report = evaluate(PointCloud(a), PointCloud(b))
        dist, sq, plane = [], [], []
        for src, dst in ((a, b), (b, a)):
            idx = np.argmin(np.linalg.norm(src[:, None] - dst[None], axis=2), axis=1)
            offset = src - dst[idx]
            dist.append(np.mean(np.linalg.norm(offset, axis=1)))
            sq.append(np.mean(np.sum(offset**2, axis=1)))
            hood_of = np.argsort(np.linalg.norm(dst[:, None] - dst[None], axis=2), axis=1)[:, :9]
            d_plane = []
            for j, o in zip(idx, offset):
                hood = dst[hood_of[j]]
                normal = np.linalg.svd(hood - hood.mean(axis=0))[2][-1]
                d_plane.append((normal @ o) ** 2)
            plane.append(np.mean(d_plane))
        for got, expect in ((report.c2c_mean_dist, dist), (report.c2c_mean_sq, sq),
                            (report.c2p_mean_sq, plane)):
            assert (got.forward, got.backward) == pytest.approx(expect, rel=1e-9)
        assert report.degenerate_planes == 0

    def test_table_and_csv_layout(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(20, 3))
        report = evaluate(PointCloud(a), PointCloud(a + 0.01))
        table = report.to_table()
        assert "ground->test" in table and "c2p mean squared" in table
        row = report.csv_row("bunny", 0.1, 1.234)
        fields = row.split(",")
        assert len(fields) == len(CSV_HEADER.split(","))
        assert fields[0] == "bunny" and fields[1] == "0.1" and fields[5] == "1.234"
        float(fields[2]), float(fields[3]), float(fields[4])


def test_directed_metric_symmetric_mean():
    m = DirectedMetric(1.0, 3.0)
    assert m.symmetric == 2.0
