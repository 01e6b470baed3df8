"""Core numeric containers, validation, and CSV round-tripping.

A :class:`Sample` is the universal input: an ``n x p`` matrix with one
observation per row.  A :class:`ShapeMatrix` is the symmetric positive-definite
matrix that drives the dependence structure of the synthetic-data generators;
it is normalized so that its trace equals the dimension.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyInput, InvalidDf, InvalidRho, NonFiniteEntry, NotPSD

_SYM_RTOL = 1e-12


@dataclass(frozen=True)
class Sample:
    """Immutable n x p data matrix, one observation per row.

    ``_fit`` memoises the spatial median of this sample (see
    :func:`geomedian.estimator.spatial_median`), so intervals, global tests
    and screening on one sample share one fit; it is None until then.  The
    memo is sound because the data do not change: :func:`validate_sample`,
    the only constructor, copies the values and makes them read-only, the
    cached fit's arrays are read-only too, and the solver is deterministic,
    so a memoised fit is byte-identical to a fresh one.  (A caller that
    re-enables writes on either on purpose gives that up.)

    ``_draws`` memoises the last bootstrap on this sample with its own fit:
    (namespace, seed) and the read-only replicate statistics (see
    :mod:`geomedian.bootstrap`).  Replicate b's statistic depends only on
    the sample, the fit, the seed, the namespace and b, so a stored prefix
    is byte-identical to fresh draws.

    ``_coords`` memoises the coordinates those bootstraps solve over: the
    residuals about ``_fit``, divided by a power of two, with their Gram
    matrix when p > n (see :mod:`geomedian.bootstrap`).  They are built by
    the first bootstrap with the sample's own fit and read-only, so every
    later one, at any seed, skips the build.  The price is one n x p copy
    of the residuals per sample bootstrapped with its own fit, kept as long
    as the sample (with its transpose when p <= n).
    """

    values: np.ndarray
    _fit: object = field(default=None, init=False, repr=False, compare=False)
    _draws: object = field(default=None, init=False, repr=False, compare=False)
    _coords: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


def validate_sample(raw) -> Sample:
    """Validate a raw matrix of reals and wrap it as a read-only :class:`Sample`.

    Rejects empty matrices and any NaN/infinite entry.
    """
    values = np.asarray(raw, dtype=np.float64)
    if values.ndim == 1:
        values = values.reshape(-1, 1)
    if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
        raise EmptyInput(f"need a matrix with >= 1 row and >= 1 column, got shape {values.shape}")
    if not np.isfinite(values).all():
        bad = np.argwhere(~np.isfinite(values))[0]
        raise NonFiniteEntry(bad[0], bad[1])
    values = values.copy()
    values.flags.writeable = False
    return Sample(values)


def validate_vector(coords, p: int | None = None) -> np.ndarray:
    """Validate a finite real vector, optionally of a required length."""
    v = np.asarray(coords, dtype=np.float64).reshape(-1)
    if not np.isfinite(v).all():
        bad = int(np.nonzero(~np.isfinite(v))[0][0])
        raise NonFiniteEntry(0, bad)
    if p is not None and v.size != p:
        raise EmptyInput(f"expected a vector of length {p}, got {v.size}")
    return v


def validate_df(df: float | None) -> None:
    """Reject Student-t degrees of freedom that are missing, non-finite or <= 2."""
    if df is None or not math.isfinite(df) or df <= 2:
        raise InvalidDf(f"degrees of freedom must be finite and exceed 2, got {df}")


@dataclass(frozen=True)
class ShapeMatrix:
    """Symmetric positive-definite p x p matrix with trace equal to p."""

    omega: np.ndarray

    @property
    def p(self) -> int:
        return self.omega.shape[0]

    @classmethod
    def normalized(cls, omega) -> "ShapeMatrix":
        """Build from any symmetric PSD matrix, rescaling so tr(omega) = p."""
        m = np.asarray(omega, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise EmptyInput(f"shape matrix must be square, got {m.shape}")
        scale = np.abs(m).max()
        if scale == 0 or not np.allclose(m, m.T, rtol=_SYM_RTOL, atol=_SYM_RTOL * max(scale, 1.0)):
            raise NotPSD("matrix is not symmetric")
        tr = np.trace(m)
        if tr <= 0:
            raise NotPSD("matrix trace must be positive")
        m = m * (m.shape[0] / tr)
        m = 0.5 * (m + m.T)
        m.flags.writeable = False
        return cls(m)


def ar1_shape(p: int, rho: float) -> ShapeMatrix:
    """First-order autoregressive shape matrix with entries rho^|j-l|.

    Unit diagonal, hence trace p without rescaling.
    """
    if not 0.0 <= rho < 1.0:
        raise InvalidRho(f"rho must lie in [0, 1), got {rho}")
    if p < 1:
        raise EmptyInput("p must be >= 1")
    idx = np.arange(p)
    omega = rho ** np.abs(idx[:, None] - idx[None, :]).astype(np.float64)
    omega = 0.5 * (omega + omega.T)
    omega.flags.writeable = False
    return ShapeMatrix(omega)


def symmetric_sqrt(omega: ShapeMatrix | np.ndarray) -> np.ndarray:
    """Unique symmetric PSD square root via spectral decomposition.

    Eigenvalues below ``-1e-10 * max eigenvalue`` raise :class:`NotPSD`;
    small negative noise is clipped to zero.
    """
    m = omega.omega if isinstance(omega, ShapeMatrix) else np.asarray(omega, dtype=np.float64)
    vals, vecs = np.linalg.eigh(m)
    top = vals[-1]
    if top < 0 or (vals < -1e-10 * max(top, 1e-300)).any():
        raise NotPSD(f"smallest eigenvalue {vals[0]:.3e} is negative")
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
    return 0.5 * (root + root.T)


def read_csv(path) -> Sample:
    """Read a comma-separated matrix, one observation per row.

    A single leading header row is detected automatically: if any field of the
    first row fails numeric parsing, that row is treated as a header and
    skipped.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise EmptyInput(f"{path} is empty")
    start = 1 if _is_header(lines[0]) else 0
    rows = [[float(f) for f in ln.split(",")] for ln in lines[start:]]
    if not rows:
        raise EmptyInput(f"{path} contains a header but no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise EmptyInput(f"ragged rows in {path}: widths {sorted(widths)}")
    return validate_sample(np.asarray(rows, dtype=np.float64))


def _is_header(line: str) -> bool:
    for field in line.split(","):
        try:
            float(field)
        except ValueError:
            return True
    return False


def _csv_text(values) -> str:
    """A matrix as comma-separated rows, each value in its shortest round-trip form."""
    m = np.atleast_2d(np.asarray(values, dtype=np.float64))
    return "".join(",".join(repr(float(x)) for x in row) + "\n" for row in m)


def write_csv(path, values) -> None:
    """Write a matrix as comma-separated rows, mirroring :func:`read_csv`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_csv_text(values))
