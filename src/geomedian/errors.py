"""Exception hierarchy shared across the library."""


class GeomedianError(Exception):
    """Base class for all library errors."""


class EmptyInput(GeomedianError):
    """Raised when a data matrix has no rows or no columns."""


class NonFiniteEntry(GeomedianError):
    """Raised when a data matrix contains NaN or infinite entries."""

    def __init__(self, row: int, col: int):
        self.row = int(row)
        self.col = int(col)
        super().__init__(f"non-finite entry at row {self.row}, column {self.col}")


class InvalidRho(GeomedianError):
    """Raised when an autoregressive correlation is outside [0, 1)."""


class NotPSD(GeomedianError):
    """Raised when a matrix expected to be positive semi-definite is not."""


class DidNotConverge(GeomedianError):
    """Raised when the location solver exhausts its iteration budget."""

    def __init__(self, iterations: int, grad_norm: float, replicate: int | None = None):
        self.iterations = int(iterations)
        self.grad_norm = float(grad_norm)
        self.replicate = replicate
        where = "" if replicate is None else f" (bootstrap replicate {replicate})"
        super().__init__(
            f"no convergence after {self.iterations} iterations, "
            f"estimating-equation residual {self.grad_norm:.3e}{where}"
        )


class DegenerateSample(GeomedianError):
    """Raised when the solver iterates enter a non-finite or oscillating state,
    when a fit leaves its plug-in scales undefined (every residual zero), when
    bootstrap calibration gets a sample whose rows are all equal, or when the
    replicate quantile behind an interval or a critical value is 0."""


class DegenerateRemainder(GeomedianError):
    """Raised when the linear-expansion diagnostic is undefined (no usable residuals)."""


class InvalidLevel(GeomedianError):
    """Raised when a quantile/confidence level is outside (0, 1)."""


class TooFewDraws(GeomedianError):
    """Raised when a bootstrap summary needs more replicates than were drawn."""


class DimensionMismatch(GeomedianError):
    """Raised when a hypothesised center has the wrong length."""


class ZeroScale(GeomedianError):
    """Raised when a marginal scale estimate is zero for some coordinate."""

    def __init__(self, coordinate: int):
        self.coordinate = int(coordinate)
        super().__init__(f"zero marginal scale at coordinate {self.coordinate}")


class InvalidAlpha(GeomedianError):
    """Raised when a significance level is outside (0, 1)."""


class ZeroVariance(GeomedianError):
    """Raised when a relative-efficiency denominator is zero."""


class InvalidDf(GeomedianError):
    """Raised when Student-t degrees of freedom are not finite and > 2."""


class PatternTooLarge(GeomedianError):
    """Raised when a mean-vector pattern does not fit into p coordinates."""


class InvalidScenario(GeomedianError):
    """Raised when an experiment description is inconsistent."""
