"""Spatial median, geometric median-of-means, and plug-in scale estimates.

The solver is a modified Weiszfeld iteration with the Vardi-Zhang correction
for iterates that land on a data point, which keeps the scheme globally
convergent on the convex objective.  The same core solves many sign-multiplied
problems at once (one per bootstrap replicate) by carrying a batch dimension;
distances are evaluated through the inner-product expansion
``||z*x - b||^2 = ||x||^2 - 2 z <x, b> + ||b||^2`` (valid because z = +-1) so
each iteration is a few matrix products.  Entries too small for the expansion
to resolve are recomputed directly before they feed the weights.

A sweep builds the distance matrix in place and takes its row minima once;
they decide which rescue the sweep needs (distance repair, vertex check,
Vardi-Zhang anchoring).  Every sweep takes one step rule: weights 1/dist, the
Weiszfeld step numer / denom, and only in rows where some point sits within
the anchor radius of the iterate, that point weighted out and the step blended
back towards the iterate.

Every solve is one call of ``_solve_batch``: a fit or median-of-means is one
row started at the coordinate-wise median, bootstrap replicates are batches
started at the origin.  The core runs in one of two representations of the
iterates, each built once per point set and owning the data scale the solver
radii are relative to.  Plain points of R^p serve every fit.  Solves started
at the origin never leave the row span of the points, so they can instead
carry coefficients a in R^n with beta = a @ X; the inner products then come
from the n x n Gram matrix X X^T, and an iteration costs O(n^2) per row
instead of O(n p).  Both share one update rule; vertex checks, distance
repairs and the Newton finish always work on points of R^p.
"""

import threading
from dataclasses import dataclass

import numpy as np

from .data import Sample, validate_vector
from .errors import (
    DegenerateRemainder,
    DegenerateSample,
    DidNotConverge,
    InvalidScenario,
)
from .streams import NS_BLOCKS, substream

# Distances below this multiple of the data scale are recomputed directly:
# the expansion's cancellation noise sits near sqrt(eps) * scale.
_REPAIR_REL = 1e-6


@dataclass(frozen=True)
class SolverConfig:
    """Settings of one Weiszfeld solve, fixed by the method (no public knob).

    ``tol`` bounds the relative iterate change, ``grad_tol`` the per-observation
    estimating-equation residual; both must hold to declare convergence.  Fits
    use the defaults (``_FIT_CONFIG``); bootstrap replicates stop at a coarser
    ``tol`` and keep ``grad_tol`` (``bootstrap._REPLICATE_CONFIG``).
    ``anchor_eps`` is relative to the data scale: points within that radius of
    the iterate are treated as coincident with it.

    The iteration budget allows for the near-vertex regime, where an optimum
    sitting close to (but not at) a data point slows the contraction to
    1 - O(gap); a budget of 1000 demonstrably strands such solves.
    """

    tol: float = 1e-10
    max_iter: int = 5000
    anchor_eps: float = 1e-12
    grad_tol: float = 1e-7


# Every spatial-median fit and median-of-means solves to the defaults.
_FIT_CONFIG = SolverConfig()
_MEMO_LOCK = threading.Lock()


@dataclass(frozen=True)
class SpatialMedianFit:
    """Fitted spatial median with solver diagnostics and plug-in scales.

    ``zeta1_hat`` is the mean inverse residual norm and ``b_diag_hat`` the
    diagonal of the mean outer product of residual directions, both computed
    over observations whose residual norm exceeds the anchor radius (the
    divisor shrinks accordingly).  When every residual is zero both are NaN.
    """

    theta_hat: np.ndarray
    iterations: int
    objective: float
    grad_norm: float
    zeta1_hat: float
    b_diag_hat: np.ndarray


def _data_scale(values) -> float:
    peak = float(np.abs(values).max()) if values.size else 0.0
    return max(1.0, peak)


class _PointCoords:
    """Batch iterates stored as vectors of R^p (the plain representation)."""

    def __init__(self, points):
        self.points = np.ascontiguousarray(points, dtype=np.float64)
        self.sq_norms = np.einsum("ij,ij->i", self.points, self.points)
        self.scale = _data_scale(self.points)
        self.width = self.points.shape[1]

    def project(self, coef):
        """Inner products <beta_b, x_i> and squared norms ||beta_b||^2."""
        return coef @ self.points.T, np.einsum("ij,ij->i", coef, coef)

    def combine(self, weights):
        """sum_i weights[b, i] * x_i for every row b."""
        return weights @ self.points

    def norm(self, coef):
        return np.sqrt(np.einsum("ij,ij->i", coef, coef))

    def to_points(self, coef):
        return coef

    def vertex(self, k, sign):
        """The multiplied data point sign * x_k."""
        return sign * self.points[k]


class _SpanCoords:
    """Batch iterates stored as coefficients a_b in R^n, beta_b = a_b @ points.

    An iteration started at the origin only ever forms convex combinations of
    its iterate and the multiplied points, so it stays in their row span.
    With the Gram matrix G = points @ points.T every inner product and norm
    the solver needs is a G-form of n-vectors, and one iteration costs
    O(m n^2) instead of O(m n p).  Worth it when p > n.  Built once per
    residual matrix and shared read-only by concurrent solves.
    """

    def __init__(self, points):
        self.points = np.ascontiguousarray(points, dtype=np.float64)
        self.gram = self.points @ self.points.T
        self.sq_norms = np.diagonal(self.gram).copy()
        self.scale = _data_scale(self.points)
        self.width = self.points.shape[0]

    def project(self, coef):
        """As :meth:`_PointCoords.project`, with beta_b = coef[b] @ points."""
        prod = coef @ self.gram
        # G is only positive semi-definite to rounding; clamp the forms
        return prod, np.maximum(np.einsum("ij,ij->i", coef, prod), 0.0)

    def combine(self, weights):
        return weights

    def norm(self, coef):
        return np.sqrt(self.project(coef)[1])

    def to_points(self, coef):
        return coef @ self.points

    def vertex(self, k, sign):
        unit = np.zeros(self.points.shape[0])
        unit[k] = sign
        return unit


def _solve_batch(coords, signs, config, start):
    """Minimize sum_i ||signs[b, i] * x_i - beta_b|| for every batch row b.

    ``coords`` (:class:`_PointCoords` or :class:`_SpanCoords` over the x_i)
    carries the data scale; ``start`` holds the starting iterates in its
    representation, ``coords.width`` wide, and is not modified.  Vertex
    checks, distance repairs and the Newton polish run on points of R^p.
    Returns (centers in R^p, iterations, grad_norm).

    Each sweep takes the row minima of the (rows x n) distance matrix once,
    and they open the rescue paths:

    - below the repair floor: the entries under it are recomputed directly;
    - below 0.02 * scale, every 4th sweep: the nearest point is tested for
      optimality and the row snaps to it if it is the minimizer, keeping the
      test's distances from it;
    - at or below the anchor radius: the coincident entries get weight 0.

    Every row steps to numer / denom.  A row with eta > 0 coincident points
    then takes the Vardi-Zhang blend of that target (its iterate where every
    weight is 0) with its iterate, lambda = min(1, eta / ||R||), or 1 when
    the residual R is 0.  While every row is active the sweep reads and
    replaces ``signs`` and ``beta`` whole, without gathering rows.
    Non-finite distances raise DegenerateSample; rows still active at
    t % 256 == 0 get a Newton polish, and a row out of iterations raises
    DidNotConverge with its index.
    """
    points = coords.points
    sq_norms = coords.sq_norms
    scale = coords.scale
    n, p = points.shape
    beta = np.array(start, dtype=np.float64)
    m = signs.shape[0]
    eps_anchor = config.anchor_eps * scale
    repair_floor = max(_REPAIR_REL * scale, eps_anchor)
    grad_bound = n * config.grad_tol

    iterations = np.zeros(m, dtype=np.int64)
    grad_norm = np.zeros(m)
    active = np.ones(m, dtype=bool)
    polished = {}  # row -> center in R^p, set by the Newton finish

    def vertex_solution(row, k):
        """If multiplied point k is the minimizer for batch row, return it and
        the row's distances from it.

        A data point is optimal exactly when the summed directions of the
        other points, evaluated at it, have norm at most its multiplicity.
        Weiszfeld contracts only linearly into such a vertex, so detecting
        optimality directly avoids a stall.
        """
        vertex = signs[row, k] * points[k]
        diff = signs[row][:, None] * points - vertex
        dnorm = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        at_vertex = dnorm <= eps_anchor
        pull = (diff[~at_vertex] / dnorm[~at_vertex, None]).sum(axis=0)
        if np.linalg.norm(pull) <= at_vertex.sum():
            return vertex, dnorm
        return None

    def newton_polish(row, start):
        """Damped Newton finish for a row whose fixed-point iteration crawls.

        An optimum a small distance from a data point slows the fixed-point
        contraction to 1 - O(distance); the objective is smooth there, so a
        few backtracking Newton steps finish the job.  Returns (beta,
        grad_norm) on success, None when no descent is possible.
        """
        mul = signs[row][:, None] * points
        beta_r = start.copy()

        def distances(b):
            diff = mul - b
            return diff, np.sqrt(np.einsum("ij,ij->i", diff, diff))

        diff, d = distances(beta_r)
        value = d.sum()
        for _ in range(60):
            if d.min() <= eps_anchor:
                snapped = vertex_solution(row, int(d.argmin()))
                if snapped is not None:
                    return snapped[0], 0.0
                return None
            w = 1.0 / d
            grad = -(w[:, None] * diff).sum(axis=0)
            gnorm = float(np.linalg.norm(grad))
            if gnorm <= grad_bound:
                return beta_r, gnorm
            unit = diff * w[:, None]
            hess = w.sum() * np.eye(p) - unit.T @ (w[:, None] * unit)
            hess[np.diag_indices_from(hess)] += 1e-12 * w.sum()
            try:
                step = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                return None
            slope = float(grad @ step)
            if slope >= 0:
                return None
            t_bt = 1.0
            for _ in range(80):
                cand = beta_r + t_bt * step
                diff_c, d_c = distances(cand)
                if d_c.sum() <= value + 1e-4 * t_bt * slope:
                    beta_r, diff, d, value = cand, diff_c, d_c, d_c.sum()
                    break
                t_bt *= 0.5
            else:
                return None
        return None

    twice = 2.0 * signs  # exact for +-1
    for t in range(1, config.max_iter + 1):
        if t % 256 == 0:
            # anything still active this late is likely in the near-vertex
            # crawl; a second-order finish costs less than more sweeps
            for row in np.nonzero(active)[0]:
                out = newton_polish(row, coords.to_points(beta[row : row + 1])[0])
                if out is not None:
                    polished[row], grad_norm[row] = out
                    iterations[row] = t
                    active[row] = False
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        full = idx.size == m
        if full:
            za, z2, ba = signs, twice, beta
        else:
            za, z2, ba = signs[idx], twice[idx], beta[idx]
        prod, sq = coords.project(ba)
        # dist = sqrt(max(sq_norms - 2 z prod + sq, 0)), built in prod's buffer
        dist = np.multiply(z2, prod, out=prod)
        np.subtract(sq_norms, dist, out=dist)
        dist += sq[:, None]
        np.maximum(dist, 0.0, out=dist)
        np.sqrt(dist, out=dist)
        row_min = dist.min(axis=1)

        if (row_min < repair_floor).any():
            rb, ri = np.nonzero(dist < repair_floor)
            diff = za[rb, ri, None] * points[ri] - coords.to_points(ba[rb])
            dist[rb, ri] = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            repaired = np.unique(rb)
            row_min[repaired] = dist[repaired].min(axis=1)
        if not np.isfinite(dist.max()):  # max propagates NaN
            raise DegenerateSample("non-finite distances encountered")

        if t % 4 == 0:
            for j in np.nonzero(row_min < 0.02 * scale)[0]:
                k = int(dist[j].argmin())
                snapped = vertex_solution(idx[j], k)
                if snapped is not None:
                    ba[j] = coords.vertex(k, za[j, k])
                    sq[j] = sq_norms[k]
                    dist[j] = snapped[1]
                    row_min[j] = dist[j].min()

        # a point within the anchor radius of its iterate gets weight 0
        coincide = dist <= eps_anchor if (row_min <= eps_anchor).any() else None
        with np.errstate(divide="ignore"):
            weights = np.divide(1.0, dist, out=dist)
        eta = np.zeros(idx.size)
        if coincide is not None:
            weights[coincide] = 0.0
            eta = coincide.sum(axis=1).astype(np.float64)
        denom = weights.sum(axis=1)
        weights *= za
        numer = coords.combine(weights)
        resid = numer - denom[:, None] * ba
        resid_norm = coords.norm(resid)
        # new - ba = resid / denom, so the step norm needs no third product
        with np.errstate(invalid="ignore"):  # 0/0 in rows whose every point coincides
            new = np.divide(numer, denom[:, None], out=numer)
            step = resid_norm / denom
        at = np.nonzero(eta)[0]
        if at.size:
            target = np.where(denom[at, None] > 0, new[at], ba[at])
            with np.errstate(divide="ignore"):  # R = 0 gives lambda = min(1, inf) = 1
                lam = np.minimum(1.0, eta[at] / resid_norm[at])
            new[at] = (1.0 - lam[:, None]) * target + lam[:, None] * ba[at]
            # the blend scales the step by 1 - lambda; a row with denom = 0 stays put
            step[at] = np.where(denom[at] > 0, (1.0 - lam) * step[at], 0.0)

        denom_change = np.maximum(1.0, np.sqrt(sq))
        grad_ok = (resid_norm <= grad_bound) | (resid_norm <= eta)
        done = (step / denom_change < config.tol) & grad_ok

        if full:
            beta = new
        else:
            beta[idx] = new
        iterations[idx] = t
        grad_norm[idx] = resid_norm
        active[idx[done]] = False

    if active.any():
        row = int(np.nonzero(active)[0][0])
        raise DidNotConverge(config.max_iter, grad_norm[row], replicate=row)
    beta = coords.to_points(beta)
    for row, center in polished.items():
        beta[row] = center
    return beta, iterations, grad_norm


def _fit_center(points, config):
    """Spatial median of the rows of ``points``, from their coordinate-wise median.

    Returns (center, iterations, data scale).  Out of iterations, it raises
    DidNotConverge without a replicate index: a fit is no bootstrap replicate.
    """
    coords = _PointCoords(points)
    start = np.median(coords.points, axis=0)[None, :]
    try:
        beta, iters, _ = _solve_batch(coords, np.ones((1, coords.points.shape[0])), config, start)
    except DidNotConverge as err:
        raise DidNotConverge(err.iterations, err.grad_norm) from None
    return beta[0], int(iters[0]), coords.scale


def spatial_median(sample: Sample) -> SpatialMedianFit:
    """Minimize the total Euclidean distance to the observations.

    Initialization is the coordinate-wise median.  Residual-based quantities
    in the returned fit exclude observations coincident with the solution
    (residual norm below the anchor radius), with the divisor reduced.

    Uniqueness requires the observations not to be collinear when p > 2; for
    collinear inputs the solver simply reports the minimizer it reaches.

    Fits are shared per sample: the first successful fit is stored on the
    sample and returned to every later call.  A solve that raises stores
    nothing.
    """
    memo = sample._fit
    if memo is not None:
        return memo
    x = sample.values
    theta, iterations, scale = _fit_center(x, _FIT_CONFIG)

    residuals = x - theta
    norms = np.linalg.norm(residuals, axis=1)
    nonzero = norms > _FIT_CONFIG.anchor_eps * scale
    k = int(nonzero.sum())
    if k:
        directions = residuals[nonzero] / norms[nonzero, None]
        grad = float(np.linalg.norm(directions.sum(axis=0)))
        zeta1 = float((1.0 / norms[nonzero]).mean())
        b_diag = (directions**2).sum(axis=0) / k
    else:
        grad = 0.0
        zeta1 = float("nan")
        b_diag = np.full(sample.p, np.nan)
    objective = float(norms.sum() - np.linalg.norm(x, axis=1).sum())
    theta.flags.writeable = False
    b_diag.flags.writeable = False
    fit = SpatialMedianFit(
        theta_hat=theta,
        iterations=iterations,
        objective=objective,
        grad_norm=grad,
        zeta1_hat=zeta1,
        b_diag_hat=b_diag,
    )
    # concurrent first calls all return the one stored fit; the lock guards
    # only this store, never a solve
    with _MEMO_LOCK:
        if sample._fit is None:
            object.__setattr__(sample, "_fit", fit)
    return sample._fit


def gmom(sample: Sample, k_blocks: int, seed: int = 0) -> np.ndarray:
    """Geometric median-of-means: spatial median of disjoint-block means.

    Rows are permuted by a stream keyed by ``seed``, then split into
    ``k_blocks`` contiguous groups whose sizes differ by at most one.
    """
    n = sample.n
    if not 1 <= k_blocks <= n:
        raise InvalidScenario(f"k_blocks must lie in [1, {n}], got {k_blocks}")
    perm = substream(seed, NS_BLOCKS).permutation(n)
    means = np.stack([sample.values[rows].mean(axis=0) for rows in np.array_split(perm, k_blocks)])
    return _fit_center(means, _FIT_CONFIG)[0]


def _unit_rows(centered: np.ndarray) -> np.ndarray:
    """Each row of ``centered`` divided by its norm; zero rows stay zero."""
    norms = np.linalg.norm(centered, axis=1)
    directions = np.zeros_like(centered)
    nz = norms > 0
    directions[nz] = centered[nz] / norms[nz, None]
    return directions


def bahadur_remainder(sample: Sample, theta_true, fit: SpatialMedianFit) -> float:
    """Max-norm gap between the scaled estimation error and its linear term.

    The linear term is the scaled sum of residual directions at the true
    center, divided by the fitted mean inverse residual norm.
    """
    theta = validate_vector(theta_true, sample.p)
    if not np.isfinite(fit.zeta1_hat) or fit.zeta1_hat <= 0:
        raise DegenerateRemainder("mean inverse residual norm is undefined for this fit")
    n = sample.n
    linear = _unit_rows(sample.values - theta).sum(axis=0) / (fit.zeta1_hat * np.sqrt(n))
    return float(np.abs(np.sqrt(n) * (fit.theta_hat - theta) - linear).max())
