"""Cloud container, file I/O and noise injection."""

import numpy as np
import pytest

from gtvdenoise.cloud import (
    NoiseSpec,
    PointCloud,
    add_gaussian_noise,
    load_cloud,
    save_cloud,
)
from gtvdenoise.errors import CloudFormatError, DegenerateCloudError


class TestPointCloud:
    def test_copies_and_freezes_input(self):
        src = np.ones((4, 3))
        cloud = PointCloud(src)
        src[0, 0] = 99.0
        assert cloud.positions[0, 0] == 1.0
        with pytest.raises(ValueError):
            cloud.positions[0, 0] = 5.0

    def test_accepts_lists(self):
        cloud = PointCloud([[1, 2, 3], [4, 5, 6]])
        assert cloud.n == 2
        assert cloud.positions.dtype == np.float64

    def test_rejects_bad_shape(self):
        with pytest.raises(DegenerateCloudError):
            PointCloud(np.ones((3, 2)))
        with pytest.raises(DegenerateCloudError):
            PointCloud(np.ones(3))

    def test_rejects_empty(self):
        with pytest.raises(DegenerateCloudError):
            PointCloud(np.empty((0, 3)))

    def test_rejects_non_finite(self):
        bad = np.ones((2, 3))
        bad[1, 2] = np.nan
        with pytest.raises(DegenerateCloudError):
            PointCloud(bad)

    def test_len(self):
        cloud = PointCloud([[0, 0, 0], [2, 3, 4]])
        assert len(cloud) == 2 == cloud.n


class TestNoise:
    def test_sigma_zero_is_identity(self):
        cloud = PointCloud([[1, 2, 3]])
        assert add_gaussian_noise(cloud, NoiseSpec(sigma=0.0)) is cloud

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(sigma=-0.1)

    def test_seed_determinism(self):
        cloud = PointCloud(np.zeros((100, 3)))
        a = add_gaussian_noise(cloud, NoiseSpec(sigma=0.5, seed=42))
        b = add_gaussian_noise(cloud, NoiseSpec(sigma=0.5, seed=42))
        c = add_gaussian_noise(cloud, NoiseSpec(sigma=0.5, seed=43))
        np.testing.assert_array_equal(a.positions, b.positions)
        assert not np.array_equal(a.positions, c.positions)

    def test_achieved_std_close_to_sigma(self):
        # 2% Monte Carlo tolerance at n = 10^4 per axis
        cloud = PointCloud(np.zeros((10_000, 3)))
        noisy = add_gaussian_noise(cloud, NoiseSpec(sigma=0.1, seed=0))
        std = noisy.positions.std(axis=0)
        assert np.all(std > 0.098) and np.all(std < 0.102)

    def test_displacement_magnitude_statistic(self):
        # mean 3D displacement length approaches sigma * sqrt(8/pi) = 0.1596 * sigma*10
        cloud = PointCloud(np.zeros((20_000, 3)))
        noisy = add_gaussian_noise(cloud, NoiseSpec(sigma=0.1, seed=1))
        mean_len = np.linalg.norm(noisy.positions, axis=1).mean()
        assert abs(mean_len - 0.1 * np.sqrt(8 / np.pi)) < 0.002


class TestXyzIO:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        cloud = PointCloud(rng.normal(size=(50, 3)) * 1e3)
        path = str(tmp_path / "c.xyz")
        save_cloud(cloud, path)
        back = load_cloud(path)
        np.testing.assert_array_equal(back.positions, cloud.positions)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("# header\n\n1 2 3\n   \n# mid\n4 5 6\n")
        cloud = load_cloud(str(path))
        assert cloud.n == 2

    def test_wrong_column_count_reports_line(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("1 2 3\n1 2\n")
        with pytest.raises(CloudFormatError) as err:
            load_cloud(str(path))
        assert "line 2" in str(err.value)

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("1 2 3\n4 five 6\n")
        with pytest.raises(CloudFormatError) as err:
            load_cloud(str(path))
        assert "line 2" in str(err.value)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("# only a comment\n")
        with pytest.raises(CloudFormatError):
            load_cloud(str(path))

    def test_format_inferred_from_extension(self, tmp_path):
        path = tmp_path / "c.weird"
        path.write_text("1 2 3\n")
        with pytest.raises(CloudFormatError):
            load_cloud(str(path))
        assert load_cloud(str(path), fmt="xyz").n == 1


class TestPlyIO:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        cloud = PointCloud(rng.normal(size=(20, 3)))
        path = str(tmp_path / "c.ply")
        save_cloud(cloud, path)
        back = load_cloud(path)
        np.testing.assert_array_equal(back.positions, cloud.positions)

    def test_extra_properties_and_faces_skipped(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text(
            "ply\nformat ascii 1.0\ncomment made by hand\n"
            "element vertex 2\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property uchar red\n"
            "element face 1\nproperty list uchar int vertex_indices\n"
            "end_header\n"
            "0 0 1 255\n0 1 0 128\n3 0 1 0\n"
        )
        cloud = load_cloud(str(path))
        assert cloud.n == 2
        np.testing.assert_array_equal(cloud.positions, [[0, 0, 1], [0, 1, 0]])

    def test_reordered_xyz_columns(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float z\nproperty float x\nproperty float y\n"
            "end_header\n"
            "3 1 2\n"
        )
        cloud = load_cloud(str(path))
        np.testing.assert_array_equal(cloud.positions, [[1, 2, 3]])

    def test_missing_magic(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text("plyx\n")
        with pytest.raises(CloudFormatError):
            load_cloud(str(path))

    def test_binary_format_rejected(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text(
            "ply\nformat binary_little_endian 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n"
        )
        with pytest.raises(CloudFormatError) as err:
            load_cloud(str(path))
        assert "ascii" in str(err.value)

    def test_vertex_count_mismatch(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n"
            "0 0 0\n1 1 1\n"
        )
        with pytest.raises(CloudFormatError) as err:
            load_cloud(str(path))
        assert "expected 3 vertices" in str(err.value)

    def test_missing_coordinate_property(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\n"
            "end_header\n"
            "0 0\n"
        )
        with pytest.raises(CloudFormatError) as err:
            load_cloud(str(path))
        assert "z" in str(err.value)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text("ply\nformat ascii 1.0\nelement vertex 1\n")
        with pytest.raises(CloudFormatError):
            load_cloud(str(path))

    @pytest.mark.parametrize("value, message", [
        ("nan", "non-finite coordinate"),
        ("inf", "non-finite coordinate"),
        ("-inf", "non-finite coordinate"),
        ("1e999", "non-finite coordinate"),   # overflows to inf
        ("five", "expected three decimal numbers, got '1 five 0'"),
    ])
    def test_bad_vertex_value_reports_its_line_as_xyz_does(self, tmp_path, value, message):
        rows = f"0 0 0\n1 {value} 0\n"
        ply = tmp_path / "bad.ply"
        ply.write_text("ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\n"
                       "property float y\nproperty float z\nend_header\n" + rows)
        xyz = tmp_path / "bad.xyz"
        xyz.write_text(rows)
        for path, line in ((ply, 9), (xyz, 2)):
            with pytest.raises(CloudFormatError) as err:
                load_cloud(str(path))
            assert err.value.line == line
            assert str(err.value) == f"{path}: line {line}: {message}"

    @pytest.mark.parametrize("line", ["property", "property float"])
    def test_property_line_without_fields(self, tmp_path, line):
        path = tmp_path / "c.ply"
        path.write_text(f"ply\nformat ascii 1.0\nelement vertex 1\n{line}\nend_header\n")
        with pytest.raises(CloudFormatError, match="malformed property line") as err:
            load_cloud(str(path))
        assert err.value.line == 4
