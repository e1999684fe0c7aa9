"""Exception hierarchy shared across the package.

The CLI maps these classes onto distinct exit codes, so keep the
granularity: parse problems, degenerate geometry, solver divergence.
"""

from __future__ import annotations


class GtvDenoiseError(Exception):
    """Base class for all package-specific errors."""


class CloudFormatError(GtvDenoiseError):
    """Malformed cloud file (bad header, non-numeric coordinate, ...)."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}: "
        if line is not None:
            where += f"line {line}: "
        super().__init__(where + message)


class ConfigError(GtvDenoiseError):
    """Malformed configuration file or invalid option value."""


class UsageError(GtvDenoiseError):
    """Command line used incorrectly (missing/contradictory arguments)."""


class DegenerateCloudError(GtvDenoiseError):
    """Cloud unusable for the requested operation (too few / coincident points)."""


class MissingLinearizationError(GtvDenoiseError):
    """A graph node has no normal linearization attached."""

    def __init__(self, node: int):
        self.node = int(node)
        super().__init__(f"node {node} has no normal linearization")


class AdmmDivergenceError(GtvDenoiseError):
    """ADMM primal residual grew persistently instead of shrinking."""
