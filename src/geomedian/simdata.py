"""Seeded generators for the synthetic benchmark models and center patterns.

Three row distributions share the location-plus-scaled-noise form
``X = theta + A Z`` with ``A`` the symmetric square root of the target
covariance: independent Gaussian coordinates, a multivariate Student-t
(parameterized by its covariance, hence mixed with a (df-2)/df rescale), and
independent unit-variance Laplace coordinates.

Each observation row draws from its own substream keyed by (seed, row), so
enlarging n extends a sample instead of reshuffling it.
"""

from dataclasses import dataclass

import numpy as np

from .data import Sample, ShapeMatrix, symmetric_sqrt, validate_sample, validate_vector
from .errors import InvalidDf, InvalidScenario, PatternTooLarge
from .streams import NS_DATA, substream

MODEL_GAUSSIAN = "gaussian"
MODEL_STUDENT_T = "student_t"
MODEL_LAPLACE = "laplace"
MODELS = (MODEL_GAUSSIAN, MODEL_STUDENT_T, MODEL_LAPLACE)

# Unit-variance Laplace has scale 1/sqrt(2).
_LAPLACE_SCALE = 1.0 / np.sqrt(2.0)


T_MODE_COVARIANCE = "covariance"
T_MODE_SCALE = "scale"


@dataclass(frozen=True)
class DistributionSpec:
    """A row distribution: model family, center, shape matrix, optional df.

    ``t_mode`` resolves the Student-t parameterization ambiguity: under
    "covariance" (default) the supplied matrix is the covariance of the rows
    (the sampler shrinks the mixing Gaussian by (df-2)/df); under "scale" it
    is the classical scale matrix, so the covariance is df/(df-2) times it.

    The symmetric square root of the shape matrix is computed once at
    construction and reused by every :func:`draw` call.
    """

    model: str
    theta: np.ndarray
    shape: ShapeMatrix
    df: float | None = None
    t_mode: str = T_MODE_COVARIANCE

    def __post_init__(self):
        if self.model not in MODELS:
            raise InvalidScenario(f"unknown model {self.model!r}")
        if self.model == MODEL_STUDENT_T and (self.df is None or self.df <= 2):
            raise InvalidDf(f"degrees of freedom must exceed 2, got {self.df}")
        if self.t_mode not in (T_MODE_COVARIANCE, T_MODE_SCALE):
            raise InvalidScenario(f"unknown t parameterization {self.t_mode!r}")
        theta = validate_vector(self.theta)
        object.__setattr__(self, "theta", theta)
        if self.shape.p != theta.size:
            raise InvalidScenario(
                f"shape matrix is {self.shape.p}x{self.shape.p} but theta has length {theta.size}"
            )
        root = symmetric_sqrt(self.shape.omega)
        object.__setattr__(self, "_root", root)
        object.__setattr__(self, "_root_is_identity", bool(np.array_equal(root, np.eye(self.shape.p))))


def draw(spec: DistributionSpec, n: int, seed: int) -> Sample:
    """Generate n observation rows from ``spec``, deterministically in ``seed``."""
    if n < 1:
        raise InvalidScenario("n must be >= 1")
    p = spec.theta.size

    core = np.empty((n, p))
    for i in range(n):
        rng = substream(seed, NS_DATA, i)
        if spec.model == MODEL_GAUSSIAN:
            core[i] = rng.standard_normal(p)
        elif spec.model == MODEL_STUDENT_T:
            z = rng.standard_normal(p)
            mix = rng.chisquare(spec.df)
            core[i] = z / np.sqrt(mix / spec.df)
        else:
            core[i] = rng.laplace(0.0, _LAPLACE_SCALE, p)
    if spec.model == MODEL_STUDENT_T and spec.t_mode == T_MODE_COVARIANCE:
        # the mixing divisor inflates the scale matrix by df/(df-2); shrink
        # the square root so the supplied matrix is the covariance
        core *= np.sqrt((spec.df - 2.0) / spec.df)
    if not spec._root_is_identity:
        core = core @ spec._root
    return validate_sample(spec.theta[None, :] + core)


PATTERN_SPARSE3 = "sparse3"
PATTERN_DENSE_QUARTER = "dense_quarter"
PATTERN_LOG_SPARSE = "log_sparse"
PATTERN_TEN_PERCENT = "ten_percent"
PATTERN_ZERO = "zero"


@dataclass(frozen=True)
class ThetaPattern:
    """Declarative center pattern; ``kappa``/``c0``/``scale`` apply where noted.

    - sparse3: (2, -2, 3, 0, ..., 0)
    - dense_quarter: 0.2 on the first floor(p/4) coordinates
    - log_sparse: kappa * sqrt(log(p)/n) on the first floor(c0 * log p) coordinates
    - ten_percent: scale * sqrt(log(p)/n) on the first floor(p/10) coordinates
    - zero: the origin
    """

    kind: str
    kappa: float = 0.0
    c0: float = 0.5
    scale: float = 2.0

    @classmethod
    def from_json(cls, obj: dict) -> "ThetaPattern":
        """Build a pattern from its JSON object form; absent fields take the defaults."""
        knobs = {key: float(obj[key]) for key in ("kappa", "c0", "scale") if key in obj}
        return cls(kind=obj.get("kind", PATTERN_ZERO), **knobs)


def theta_vector(pattern: ThetaPattern, p: int, n: int) -> np.ndarray:
    """Materialize ``pattern`` as an exact length-p vector."""
    if p < 1 or n < 1:
        raise InvalidScenario("p and n must be >= 1")
    theta = np.zeros(p)
    if pattern.kind == PATTERN_ZERO:
        return theta
    if pattern.kind == PATTERN_SPARSE3:
        if p < 3:
            raise PatternTooLarge(f"sparse3 needs p >= 3, got {p}")
        theta[:3] = (2.0, -2.0, 3.0)
        return theta
    if pattern.kind == PATTERN_DENSE_QUARTER:
        k = p // 4
        if k < 1:
            raise PatternTooLarge(f"dense_quarter needs p >= 4, got {p}")
        theta[:k] = 0.2
        return theta
    if pattern.kind == PATTERN_LOG_SPARSE:
        if pattern.kappa == 0.0:
            return theta
        k = int(np.floor(pattern.c0 * np.log(p)))
        if k < 1:
            raise PatternTooLarge(f"log_sparse hosts no coordinates at p={p}, c0={pattern.c0}")
        theta[:k] = pattern.kappa * np.sqrt(np.log(p) / n)
        return theta
    if pattern.kind == PATTERN_TEN_PERCENT:
        k = int(np.floor(0.1 * p))
        if k < 1:
            raise PatternTooLarge(f"ten_percent needs p >= 10, got {p}")
        theta[:k] = pattern.scale * np.sqrt(np.log(p) / n)
        return theta
    raise InvalidScenario(f"unknown pattern {pattern.kind!r}")
