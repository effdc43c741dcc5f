"""Exception hierarchy shared by every module in the package."""


class GrowthFPTError(Exception):
    """Base class for all package errors."""


class InvalidParams(GrowthFPTError):
    """Parameter record violates its constraints."""


class DomainError(GrowthFPTError):
    """Evaluation requested outside the curve's or process's time domain."""


class OrderError(DomainError):
    """Time arguments supplied in the wrong order (t < tau or t <= t0)."""


class NonPositiveState(DomainError):
    """A state that must be strictly positive was zero or negative."""


class StartOnBoundary(GrowthFPTError):
    """First-passage problem started exactly on the boundary."""


class StartOutsideBand(GrowthFPTError):
    """First-exit problem started on or outside one of the two boundaries."""


class BandCrossing(GrowthFPTError):
    """Lower boundary meets or exceeds the upper one somewhere on the grid."""


class GridError(GrowthFPTError):
    """Time grid is empty, non-monotone, or non-uniform where required."""


class ConfigError(GrowthFPTError):
    """Simulation or run configuration is inconsistent."""


class ParseError(ConfigError):
    """Configuration document is not well-formed."""


class ValidationError(ConfigError):
    """Configuration document is well-formed but violates a constraint."""


class EmptySample(GrowthFPTError):
    """An empirical sample with no recorded events cannot be compared."""
