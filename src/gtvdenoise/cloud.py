"""Point cloud container, XYZ / PLY-ascii I/O and synthetic Gaussian noise."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import CloudFormatError, DegenerateCloudError

# 17 significant digits round-trip an IEEE double exactly.
_FLOAT_FMT = "%.17g"


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Immutable set of 3D points, float64, shape (N, 3), all finite, N >= 1."""

    positions: np.ndarray

    def __post_init__(self):
        pos = np.array(self.positions, dtype=np.float64, copy=True, order="C")
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise DegenerateCloudError(f"positions must have shape (N, 3), got {pos.shape}")
        if pos.shape[0] < 1:
            raise DegenerateCloudError("cloud must contain at least one point")
        if not np.all(np.isfinite(pos)):
            raise DegenerateCloudError("positions contain non-finite values")
        pos.flags.writeable = False
        object.__setattr__(self, "positions", pos)

    def __len__(self) -> int:
        return self.positions.shape[0]

    @property
    def n(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class NoiseSpec:
    """Zero-mean isotropic Gaussian noise: sigma per axis, numpy PCG64 from seed."""

    sigma: float
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma >= 0 and self.seed >= 0):
            raise ValueError("noise needs a finite sigma >= 0 and a seed >= 0, "
                             f"got sigma {self.sigma}, seed {self.seed}")


def add_gaussian_noise(cloud: PointCloud, spec: NoiseSpec) -> PointCloud:
    """Displace every point by N(0, sigma^2) independently per axis.

    sigma = 0 returns the input cloud unchanged. The expected 3D
    displacement magnitude is sigma * sqrt(8 / pi).
    """
    if spec.sigma == 0.0:
        return cloud
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    noise = spec.sigma * rng.standard_normal((cloud.n, 3))
    return PointCloud(cloud.positions + noise)


def _infer_format(path: str, fmt: str | None) -> str:
    if fmt is not None:
        fmt = fmt.lower()
        if fmt not in ("xyz", "ply"):
            raise CloudFormatError(f"unknown cloud format {fmt!r}", path=path)
        return fmt
    ext = os.path.splitext(path)[1].lower()
    if ext == ".xyz":
        return "xyz"
    if ext == ".ply":
        return "ply"
    raise CloudFormatError(
        f"cannot infer format from extension {ext!r}; pass format='xyz' or 'ply'", path=path
    )


def load_cloud(path: str, fmt: str | None = None) -> PointCloud:
    """Read a cloud from an XYZ or PLY-ascii file (vertices only)."""
    fmt = _infer_format(path, fmt)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            if fmt == "xyz":
                return _read_xyz(fh, path)
            return _read_ply(fh, path)
    except UnicodeDecodeError as exc:
        raise CloudFormatError(f"not UTF-8 text ({exc.reason})", path=path) from None


def save_cloud(cloud: PointCloud, path: str, fmt: str | None = None) -> None:
    """Write a cloud as XYZ or PLY-ascii with full float64 precision."""
    fmt = _infer_format(path, fmt)
    with open(path, "w", encoding="utf-8") as fh:
        if fmt == "xyz":
            _write_xyz(cloud, fh)
        else:
            _write_ply(cloud, fh)


def _parse_triple(tokens: list[str], path: str, lineno: int) -> tuple[float, float, float]:
    try:
        x, y, z = (float(t) for t in tokens)
    except ValueError:
        raise CloudFormatError(
            f"expected three decimal numbers, got {' '.join(tokens)!r}", path=path, line=lineno
        ) from None
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise CloudFormatError("non-finite coordinate", path=path, line=lineno)
    return x, y, z


def _read_xyz(fh, path: str) -> PointCloud:
    points = []
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 3:
            raise CloudFormatError(
                f"expected 3 columns, found {len(tokens)}", path=path, line=lineno
            )
        points.append(_parse_triple(tokens, path, lineno))
    if not points:
        raise CloudFormatError("no points in file", path=path, line=None)
    return PointCloud(np.asarray(points, dtype=np.float64))


def _write_xyz(cloud: PointCloud, fh) -> None:
    for x, y, z in cloud.positions:
        fh.write(f"{_FLOAT_FMT % x} {_FLOAT_FMT % y} {_FLOAT_FMT % z}\n")


_PLY_NUMERIC = {
    "char", "uchar", "short", "ushort", "int", "uint",
    "int8", "uint8", "int16", "uint16", "int32", "uint32",
    "float", "float32", "double", "float64",
}


def _read_ply(fh, path: str) -> PointCloud:
    """Parse an ascii PLY, keeping only vertex x/y/z; faces and extras ignored."""
    line = fh.readline()
    lineno = 1
    if line.strip() != "ply":
        raise CloudFormatError("missing 'ply' magic line", path=path, line=lineno)

    elements: list[tuple[str, int, list[tuple[str, str]]]] = []  # (name, count, [(type, prop)])
    fmt_seen = False
    while True:
        line = fh.readline()
        lineno += 1
        if not line:
            raise CloudFormatError("header ended before 'end_header'", path=path, line=lineno)
        tokens = line.split()
        if not tokens or tokens[0] in ("comment", "obj_info"):
            continue
        if tokens[0] == "format":
            if len(tokens) < 2 or tokens[1] != "ascii":
                raise CloudFormatError(
                    f"unsupported PLY format {' '.join(tokens[1:])!r} (ascii only)",
                    path=path, line=lineno,
                )
            fmt_seen = True
        elif tokens[0] == "element":
            if len(tokens) != 3:
                raise CloudFormatError("malformed element line", path=path, line=lineno)
            try:
                count = int(tokens[2])
            except ValueError:
                raise CloudFormatError(
                    f"bad element count {tokens[2]!r}", path=path, line=lineno
                ) from None
            elements.append((tokens[1], count, []))
        elif tokens[0] == "property":
            if not elements:
                raise CloudFormatError("property before any element", path=path, line=lineno)
            if tokens[1:2] == ["list"]:
                elements[-1][2].append(("list", tokens[-1] if len(tokens) > 2 else ""))
            elif len(tokens) != 3:
                raise CloudFormatError("malformed property line", path=path, line=lineno)
            else:
                elements[-1][2].append((tokens[1], tokens[2]))
        elif tokens[0] == "end_header":
            break
        else:
            raise CloudFormatError(
                f"unrecognized header line {tokens[0]!r}", path=path, line=lineno
            )
    if not fmt_seen:
        raise CloudFormatError("missing 'format ascii 1.0' line", path=path, line=None)

    vertex = next((e for e in elements if e[0] == "vertex"), None)
    if vertex is None:
        raise CloudFormatError("no 'element vertex' in header", path=path, line=None)
    _, n_vertices, props = vertex
    if n_vertices < 1:
        raise CloudFormatError("vertex count must be >= 1", path=path, line=None)

    columns = {}
    for idx, (ptype, pname) in enumerate(props):
        if pname in ("x", "y", "z"):
            if ptype == "list" or ptype not in _PLY_NUMERIC:
                raise CloudFormatError(
                    f"vertex property {pname!r} has non-numeric type {ptype!r}",
                    path=path, line=None,
                )
            columns[pname] = idx
    missing = {"x", "y", "z"} - set(columns)
    if missing:
        raise CloudFormatError(
            f"vertex element lacks properties {sorted(missing)}", path=path, line=None
        )

    points = np.empty((n_vertices, 3), dtype=np.float64)
    for e_name, e_count, e_props in elements:
        if e_name == "vertex":
            got = 0
            while got < e_count:
                line = fh.readline()
                lineno += 1
                if not line:
                    raise CloudFormatError(
                        f"expected {e_count} vertices, found {got}", path=path, line=lineno
                    )
                tokens = line.split()
                if not tokens:
                    continue
                if len(tokens) < len(e_props):
                    raise CloudFormatError(
                        f"vertex row has {len(tokens)} values, header declares {len(e_props)}",
                        path=path, line=lineno,
                    )
                points[got] = _parse_triple([tokens[columns[c]] for c in "xyz"], path, lineno)
                got += 1
        else:
            # Skip other elements (faces, edges, ...) one line per entry.
            for _ in range(e_count):
                if not fh.readline():
                    break
                lineno += 1
    return PointCloud(points)


def _write_ply(cloud: PointCloud, fh) -> None:
    fh.write("ply\n")
    fh.write("format ascii 1.0\n")
    fh.write(f"element vertex {cloud.n}\n")
    fh.write("property double x\n")
    fh.write("property double y\n")
    fh.write("property double z\n")
    fh.write("end_header\n")
    _write_xyz(cloud, fh)
