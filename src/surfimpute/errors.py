"""Exception types shared across the toolkit.

Plain ``ValueError`` is used for ordinary bad arguments (non-positive
spacing, wrong lengths, ...); the classes here mark domain conditions a
caller may want to catch individually.
"""


class SurfImputeError(Exception):
    """Base class for all toolkit-specific errors."""


class EmptyDatasetError(SurfImputeError):
    """An operation found fewer valid points than it needs (none, or
    one where it needs two)."""


class NoProfileElementsError(SurfImputeError):
    """The profile has no elements to scale a model by: fewer than two
    qualified mean-line crossings (Rsm is undefined), or a flat profile
    (Rq is 0)."""


class MustImputeFirstError(SurfImputeError):
    """The operation requires a complete profile (no missing heights)."""


class NothingToImputeError(SurfImputeError):
    """The profile has no missing heights to fill."""


class NotPositiveDefiniteError(SurfImputeError):
    """Cholesky failed at every jitter level on the escalation ladder."""


class CoverageError(SurfImputeError):
    """A local interpolator found no valid support for some point."""


class InsufficientFeaturesError(SurfImputeError):
    """Fewer surface features (dales) than the mask requested."""


class FitFailureError(SurfImputeError):
    """A fit could not start: its data, start point or start objective
    is not finite.  A fit that starts and later meets a non-finite
    objective returns its best finite iterate instead, with the trace's
    ``termination == "nonfinite"``."""


class GridMismatchError(SurfImputeError):
    """Two profiles that must share an abscissa grid do not."""


class ConfigError(SurfImputeError):
    """A config or data file failed to parse; ``line`` is 1-based."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
