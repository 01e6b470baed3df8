"""Seeded generators for the synthetic benchmark models and center patterns.

Three row distributions share the location-plus-scaled-noise form
``X = theta + A Z`` with ``A`` the symmetric square root of the target
covariance: independent Gaussian coordinates, a multivariate Student-t
(parameterized by its covariance, hence mixed with a (df-2)/df rescale), and
independent unit-variance Laplace coordinates.

A :func:`draw` call opens two streams keyed by the seed: the n x p
coordinates come from one generator in row order and the Student-t mixing
variates from a second one, one per row.  So row i depends only on (seed, i)
for a given model and p, and enlarging n extends a sample instead of
reshuffling it.  (The rotation by a non-identity shape root is one matrix
product, whose last-bit rounding can depend on n at larger p.)
"""

from dataclasses import dataclass, fields

import numpy as np

from .data import Sample, ShapeMatrix, symmetric_sqrt, validate_df, validate_sample, validate_vector
from .errors import InvalidScenario, PatternTooLarge
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
    construction and reused by every :func:`draw` call; for the identity
    shape it is ``None`` and :func:`draw` skips the rotation.
    """

    model: str
    theta: np.ndarray
    shape: ShapeMatrix
    df: float | None = None
    t_mode: str = T_MODE_COVARIANCE

    def __post_init__(self):
        if self.model not in MODELS:
            raise InvalidScenario(f"unknown model {self.model!r}")
        if self.model == MODEL_STUDENT_T:
            validate_df(self.df)
        if self.t_mode not in (T_MODE_COVARIANCE, T_MODE_SCALE):
            raise InvalidScenario(f"unknown t parameterization {self.t_mode!r}")
        theta = validate_vector(self.theta)
        object.__setattr__(self, "theta", theta)
        if self.shape.p != theta.size:
            raise InvalidScenario(
                f"shape matrix is {self.shape.p}x{self.shape.p} but theta has length {theta.size}"
            )
        # the square root of I is I: skip the O(p^3) eigendecomposition
        # and the rotation (None stands for the identity)
        identity = np.array_equal(self.shape.omega, np.eye(self.shape.p))
        object.__setattr__(self, "_root", None if identity else symmetric_sqrt(self.shape.omega))


def draw(spec: DistributionSpec, n: int, seed: int) -> Sample:
    """Generate n observation rows from ``spec``, deterministically in ``seed``.

    The call opens two streams: ``substream(seed, NS_DATA, 0)`` fills the
    n x p coordinates row by row, and for the Student-t model
    ``substream(seed, NS_DATA, 1)`` draws one chi-square mixing variate per
    row.  numpy fills both in order, so the first k rows of an n-row draw are
    the k-row draw.
    """
    if n < 1:
        raise InvalidScenario("n must be >= 1")
    p = spec.theta.size

    if spec.model == MODEL_LAPLACE:
        core = substream(seed, NS_DATA, 0).laplace(0.0, _LAPLACE_SCALE, (n, p))
    else:
        core = substream(seed, NS_DATA, 0).standard_normal((n, p))
    if spec.model == MODEL_STUDENT_T:
        mix = substream(seed, NS_DATA, 1).chisquare(spec.df, n)
        core /= np.sqrt(mix / spec.df)[:, None]
        if spec.t_mode == T_MODE_COVARIANCE:
            # the mixing divisor inflates the scale matrix by df/(df-2); shrink
            # the square root so the supplied matrix is the covariance
            core *= np.sqrt((spec.df - 2.0) / spec.df)
    if spec._root is not None:
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
        _check_json_fields(obj, "theta", [f.name for f in fields(cls)])
        knobs = {key: float(value) for key, value in obj.items() if key != "kind"}
        return cls(kind=obj.get("kind", PATTERN_ZERO), **knobs)


# JSON types of the numeric and list fields of scenario, generate and theta
# objects; a field the table does not list may hold any JSON value
_JSON_TYPES = {
    **dict.fromkeys(("n", "p", "replications", "B", "seed", "workers"), int),
    **dict.fromkeys(("rho", "c0", "kappa", "scale"), (int, float)),
    "df": (int, float, type(None)),
    **dict.fromkeys(("levels", "methods"), (list, tuple)),
    **dict.fromkeys(("kappa_grid", "p_grid", "n_grid"), (list, tuple, type(None))),
}


def _check_json_fields(obj: dict, what: str, known, required=()) -> None:
    """Raise InvalidScenario unless ``obj`` is a JSON object that has every
    ``required`` field and whose fields are all ``known`` and have a JSON type
    that :data:`_JSON_TYPES` allows; the error names the field at fault."""
    if not isinstance(obj, dict):
        raise InvalidScenario(f"{what} JSON must be an object, got {obj!r}")
    for key in required:
        if key not in obj:
            raise InvalidScenario(f"{what} JSON needs a field {key!r}")
    unknown = set(obj) - set(known)
    if unknown:
        raise InvalidScenario(f"unknown {what} fields {sorted(unknown)}")
    for key, value in obj.items():
        if not isinstance(value, _JSON_TYPES.get(key, object)):
            raise InvalidScenario(f"{what} field {key!r} has the wrong JSON type: {value!r}")


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
