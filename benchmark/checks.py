"""Output checks computed apart from the program.

The surface distances are analytic: they use only the parameters each
workload generates its clean cloud from, never the program's own
geometry code, so a wrong denoiser cannot agree with them by accident.
"""

from __future__ import annotations

import math

import numpy as np

# A denoised cloud must sit this much closer to the clean surface than the
# noisy input did: surface_rms_ratio < 1 - RATIO_MARGIN.
RATIO_MARGIN = 0.05


def plane_distance(points: np.ndarray) -> np.ndarray:
    """Distance to the plane z = 0."""
    return np.abs(points[:, 2])


def sphere_radius(n: int, spacing: float) -> float:
    """Radius at which n quasi-uniform points have mean spacing `spacing`."""
    return spacing * math.sqrt(n / (4.0 * math.pi))


def sphere_distance(points: np.ndarray, radius: float) -> np.ndarray:
    """Distance to the sphere of `radius` centred at the origin."""
    return np.abs(np.linalg.norm(points, axis=1) - radius)


def rounded_box_half_size(n: int, spacing: float, edge_radius: float) -> float:
    """Half edge of the core cube whose rounded box has area n * spacing^2.

    Area of cube (edge a) dilated by a ball of radius r:
    6a^2 + 12 (pi r / 2) a + 4 pi r^2.
    """
    r = edge_radius
    c1 = 6.0 * math.pi * r
    c0 = 4.0 * math.pi * r * r - n * spacing * spacing
    return (-c1 + math.sqrt(c1 * c1 - 24.0 * c0)) / 24.0


def rounded_box_distance(points: np.ndarray, half: float, edge_radius: float) -> np.ndarray:
    """Unsigned distance to the boundary of cube(half) dilated by a ball."""
    q = np.abs(points) - half
    outside = np.linalg.norm(np.maximum(q, 0.0), axis=1)
    inside = np.minimum(q.max(axis=1), 0.0)
    return np.abs(outside + inside - edge_radius)


def rms(values: np.ndarray) -> float:
    return float(np.sqrt(np.mean(values * values)))


def read_xyz(path: str) -> np.ndarray:
    """Read an n x 3 text cloud with numpy, not with the program's parser."""
    return np.loadtxt(path, dtype=np.float64, comments="#", ndmin=2)


def read_diag_rows(path: str) -> tuple[dict, list[tuple[str, int, float]]]:
    """Meta lines and (pass, iteration, primal residual) rows of a .diag file."""
    meta, rows = {}, []
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    body = lines.index("[iterations]")
    for line in lines[:body]:
        key, sep, value = line.partition(": ")
        if sep:
            meta[key] = value
    for line in lines[body + 2:]:
        label, it, res = line.split(",")[:3]
        rows.append((label, int(it), float(res)))
    return meta, rows


def final_rows(rows: list[tuple[str, int, float]]) -> dict[str, tuple[int, float]]:
    """Last (iteration, residual) of every pass, in pass order."""
    last: dict[str, tuple[int, float]] = {}
    for label, it, res in rows:
        last[label] = (it, res)
    return last


def check_output(noisy: np.ndarray, out: np.ndarray, distance) -> tuple[float, list[str]]:
    """surface_rms_ratio of `out` plus the list of failed checks (empty if none)."""
    problems = []
    if out.shape != noisy.shape:
        return math.nan, [f"output shape {out.shape} != input shape {noisy.shape}"]
    if not np.all(np.isfinite(out)):
        return math.nan, ["output has non-finite values"]
    ratio = rms(distance(out)) / rms(distance(noisy))
    if not ratio < 1.0 - RATIO_MARGIN:
        problems.append(f"surface_rms_ratio {ratio:.4f} >= {1.0 - RATIO_MARGIN}")
    return ratio, problems


def check_converged(diag_path: str, admm_tol: float) -> list[str]:
    """Every pass in the .diag must end at or below admm_tol."""
    _, rows = read_diag_rows(diag_path)
    finals = final_rows(rows)
    if not finals:
        return ["diagnostics hold no solver passes"]
    return [
        f"pass {label} ended at residual {res:.3e} > admm_tol {admm_tol:g}"
        for label, (_, res) in finals.items()
        if res > admm_tol
    ]
