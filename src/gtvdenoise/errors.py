"""Exception hierarchy shared across the package.

Each class carries the exit code the CLI returns for it, as its exit_code
class attribute: a usage, configuration or other package error 2, a parse
problem 4, solver divergence 5 and degenerate geometry 6. The CLI's own
codes are 0 (success), 1 (bench with failed models) and 3 (I/O failure).
"""

from __future__ import annotations


class GtvDenoiseError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 2


class CloudFormatError(GtvDenoiseError):
    """Malformed cloud file (bad header, non-numeric coordinate, ...)."""

    exit_code = 4

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

    exit_code = 6


class MissingLinearizationError(GtvDenoiseError):
    """A graph node has no normal linearization attached."""

    def __init__(self, node: int):
        self.node = int(node)
        super().__init__(f"node {node} has no normal linearization")


class AdmmDivergenceError(GtvDenoiseError):
    """ADMM primal residual grew persistently instead of shrinking."""

    exit_code = 5
