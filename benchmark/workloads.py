"""The three benchmark workloads: inputs from a seed, config, surface distance.

Clean clouds come from `gtvdenoise.synthetic`; the noise and the analytic
surface each output is judged against come from this package. The seed
drives the noise and, where the generator takes one, the in-plane jitter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np
from gtvdenoise.cli import parse_config_file
from gtvdenoise.synthetic import jittered_plane, rounded_box, sphere_with_spacing

import checks

CONFIG_DIR = Path(__file__).resolve().parent / "configs"
SPACING = 0.7
SIGMA = 0.1
PLANE_SIDE = 30
SPHERE_POINTS = 3000
BOX_POINTS = 800
BOX_EDGE_RADIUS = 2.0


@dataclass(frozen=True)
class Workload:
    name: str
    config: Path
    # seed -> (clean points, analytic distance to the clean surface)
    clean: Callable[[int], tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]]
    # every pass must reach the config's admm_tol (else the budget is fixed)
    converges: bool = False

    def setting(self, key: str) -> str:
        """Value of `key` in the workload's config file."""
        return parse_config_file(str(self.config))[key]


def _plane(seed: int):
    cloud = jittered_plane(PLANE_SIDE, PLANE_SIDE, SPACING, jitter=0.1, seed=seed)
    return cloud.positions, checks.plane_distance


def _sphere(seed: int):
    cloud = sphere_with_spacing(SPHERE_POINTS, SPACING)
    radius = checks.sphere_radius(SPHERE_POINTS, SPACING)
    return cloud.positions, partial(checks.sphere_distance, radius=radius)


def _box(seed: int):
    cloud = rounded_box(BOX_POINTS, SPACING, BOX_EDGE_RADIUS, seed=seed)
    half = checks.rounded_box_half_size(BOX_POINTS, SPACING, BOX_EDGE_RADIUS)
    return cloud.positions, partial(
        checks.rounded_box_distance, half=half, edge_radius=BOX_EDGE_RADIUS
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("plane-converge", CONFIG_DIR / "plane-converge.cfg", _plane,
                 converges=True),
        Workload("sphere-onepass", CONFIG_DIR / "sphere-onepass.cfg", _sphere),
        Workload("box-windowed", CONFIG_DIR / "box-windowed.cfg", _box),
    )
}
WARMUP_CONFIG = CONFIG_DIR / "warmup.cfg"


def add_noise(clean: np.ndarray, seed: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64([seed, 1]))
    return clean + SIGMA * rng.standard_normal(clean.shape)


def warmup_cloud() -> np.ndarray:
    """A 36-point noisy plane, independent of the workload seed."""
    return add_noise(jittered_plane(6, 6, SPACING, jitter=0.1).positions, 0)
