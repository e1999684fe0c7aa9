"""Point cloud denoising by graph total variation of surface normals.

denoise runs the pipeline's stages, each also exported: build_knn_graph,
approximate_bipartite, estimate_normal_field and admm_denoise_partite.
evaluate measures a result against a reference cloud.
"""

from .bipartite import BLUE, RED, Bipartition, approximate_bipartite
from .cloud import (
    NoiseSpec,
    PointCloud,
    add_gaussian_noise,
    load_cloud,
    save_cloud,
)
from .errors import (
    AdmmDivergenceError,
    CloudFormatError,
    ConfigError,
    DegenerateCloudError,
    GtvDenoiseError,
    MissingLinearizationError,
    UsageError,
)
from .graph import SpatialIndex, WeightedGraph, build_knn_graph
from .metrics import MetricReport, evaluate
from .normals import (
    NormalField,
    affine_normals,
    estimate_normal_field,
    orient_normals,
    support_pairs,
)
from .solver import (
    DenoiseParams,
    DiagnosticsReport,
    EdgeOperator,
    admm_denoise_partite,
    assemble_edge_operator,
    denoise,
    p_update,
    soft_threshold,
)

__version__ = "0.1.0"

__all__ = [
    "AdmmDivergenceError",
    "approximate_bipartite",
    "add_gaussian_noise",
    "admm_denoise_partite",
    "affine_normals",
    "assemble_edge_operator",
    "Bipartition",
    "BLUE",
    "build_knn_graph",
    "CloudFormatError",
    "ConfigError",
    "DegenerateCloudError",
    "denoise",
    "DenoiseParams",
    "DiagnosticsReport",
    "EdgeOperator",
    "estimate_normal_field",
    "evaluate",
    "GtvDenoiseError",
    "load_cloud",
    "MetricReport",
    "MissingLinearizationError",
    "NoiseSpec",
    "NormalField",
    "orient_normals",
    "PointCloud",
    "p_update",
    "RED",
    "save_cloud",
    "soft_threshold",
    "SpatialIndex",
    "support_pairs",
    "UsageError",
    "WeightedGraph",
    "__version__",
]
