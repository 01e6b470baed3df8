"""Spatial median, geometric median-of-means, and plug-in scale estimates.

The solver is a modified Weiszfeld iteration with the Vardi-Zhang correction
for iterates that land on a data point, which keeps the scheme globally
convergent on the convex objective.  The same core solves many sign-multiplied
problems at once (one per bootstrap replicate) by carrying a batch dimension;
distances are evaluated through the inner-product expansion
``||z*x - b||^2 = ||x||^2 - 2 z <x, b> + ||b||^2`` (valid because z = +-1) so
each iteration is a few matrix products.

Every solve runs in the points' own units.  The coordinates take over a
fresh copy of the points and divide it by ``unit``, a power of two near their
median row norm (so one gross outlier row cannot move it), so the scaling is
exact, no square overflows or underflows at any magnitude, and the solver's
radii and step test are plain constants in those units.  Every
solve starts at the origin: a fit or median-of-means centres its points on
their coordinate-wise median first and adds it back afterwards, and bootstrap
replicates solve residuals that are already centred.  So the expansion's
cancellation noise is about sqrt(eps) of the median row norm whatever the
data's magnitude or offset, and distances are never recomputed directly.

A sweep builds the distance matrix in place and takes its row minima once;
they decide which rescue the sweep needs (vertex check, Vardi-Zhang
anchoring).  Every sweep takes one step rule: weights 1/dist, the Weiszfeld
step numer / denom, and only in rows where some point sits within the anchor
radius of the iterate, that point weighted out and the step blended back
towards the iterate.

Every solve is one call of ``_solve_batch``, in one of two representations of
the iterates, each built once per point set and read-only after that.  Its
matrix products run on fixed-shape slabs of ``config.product_rows`` rows, each
row in the slot its index fixes, so a row's bits never depend on how many
other rows share its batch or which of them are still running.  Plain points
of R^p serve every fit.  Solves started at the origin never leave the row span
of the points, so they can instead carry coefficients a in R^n with
beta = a @ X; the inner products then come from the n x n Gram matrix X X^T,
and an iteration costs O(n^2) per row instead of O(n p).  Both share one
update rule; vertex checks and the Newton finish always work on points of
R^p.  A bootstrap asks only for each row's max|beta|, which the span
representation takes slab by slab from the mapping to R^p.

A solve's batch-sized arrays are views of the thread's workspace
(``_Workspace``): one flat buffer per role (sign slabs, iterates, products,
a sweep's residual, the gathers of the running slabs), grown to the largest
solve seen on that thread and kept for the next, so back-to-back solves
reuse the same pages instead of freeing them and faulting them back in.
Results are copied out of it; a pool thread's workspace goes with the
thread.
"""

import math
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import Sample, validate_vector
from .errors import (
    DegenerateRemainder,
    DegenerateSample,
    DidNotConverge,
    InvalidScenario,
)
from .streams import NS_BLOCKS, substream


@dataclass(frozen=True)
class SolverConfig:
    """Settings of one Weiszfeld solve, fixed by the method (no public knob).

    ``tol`` bounds the relative iterate change, ``grad_tol`` the per-observation
    estimating-equation residual; both must hold to declare convergence.  Fits
    use the defaults (``_FIT_CONFIG``); bootstrap replicates stop at a coarser
    ``tol`` and keep ``grad_tol`` (``bootstrap._REPLICATE_CONFIG``).
    ``tol`` and ``anchor_eps`` are in solver units (the coordinates' ``unit``,
    near the median row norm of the centred points): points within
    ``anchor_eps`` of the iterate are treated as coincident with it.

    The iteration budget allows for the near-vertex regime, where an optimum
    sitting close to (but not at) a data point slows the contraction to
    1 - O(gap); a budget of 1000 demonstrably strands such solves.

    ``product_rows`` is the row count of every matrix product of a solve
    (see ``_solve_batch``).  A fit solves one row, so it keeps 1: its
    products stay vector-matrix.
    """

    tol: float = 1e-10
    max_iter: int = 5000
    anchor_eps: float = 1e-12
    grad_tol: float = 1e-7
    product_rows: int = 1


# Every spatial-median fit and median-of-means solves to the defaults.
_FIT_CONFIG = SolverConfig()
_MEMO_LOCK = threading.Lock()


class _Workspace(threading.local):
    """One thread's solve arrays, kept from one solve to the next.

    Each role owns one flat float64 buffer, grown to the largest request
    seen on the thread, and hands out views of its first elements.  Freed
    arrays would let the allocator trim the heap, and the next solve fault
    them back in.  Views hold stale values, so a caller zeroes what it
    relies on; no view outlives the call that took it, and one thread runs
    one solve at a time, so each role has one user.
    """

    def __init__(self):
        self.buffers = {}

    def take(self, role, shape):
        """A float64 view of ``shape`` on the role's buffer, contents stale."""
        size = math.prod(shape)
        buf = self.buffers.get(role)
        if buf is None or buf.size < size:
            buf = self.buffers[role] = np.empty(size)
        return buf[:size].reshape(shape)


_WORKSPACE = _Workspace()


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


def _in_units(points):
    """Divide the float64 array ``points`` by ``unit`` in place; return ``unit``.

    ``unit`` is a power of two near the points' median row norm, a scale that
    one gross outlier row cannot move (a mean can: it would shrink every
    other row under the solver's vertex radius).  It is clamped below at
    max row norm / 2^500, so no row's square overflows in those units when
    most rows are tiny.  The points are first divided by a power of two
    above max|x|, so no square overflows there either; every division is by
    a power of two, so the scaling is exact.  All-zero points get unit 1,
    since frexp(0) has exponent 0.
    """
    peak = np.frexp(max(points.max(), -points.min()))[1]
    np.ldexp(points, -peak, out=points)
    norms = np.sqrt(np.einsum("ij,ij->i", points, points))
    spread = max(np.frexp(_coordinate_median(norms))[1], np.frexp(norms.max())[1] - 500)
    np.ldexp(points, -spread, out=points)
    return np.ldexp(1.0, peak + spread)


def _max_abs(rows):
    """max|x| along the last axis, without an |rows| temporary.

    abs keeps +0.0 for a row of zeros, whose max(max, -min) may come out as
    -0.0.
    """
    return np.abs(np.maximum(rows.max(axis=-1), -rows.min(axis=-1)))


def _slabs(rows, product_rows, first=0):
    """``rows`` laid out in slabs of ``product_rows`` rows, and the first row's offset.

    Row b is replicate ``first + b``: it goes to slot (first + b) %
    product_rows, so the rows stay in order, starting ``lead = first %
    product_rows`` rows into the first slab, and zero rows fill the slots
    before and after them.  Returns the (slabs * product_rows, width) layout
    and ``lead``.

    A matrix product of the layout, stacked as (slabs, product_rows, width),
    runs one BLAS call per slab, all of one fixed shape.  A row's bits then
    depend only on its slot: not on the values of the other rows, nor on how
    many slabs there are (BLAS picks its kernel, blocking and threads by
    shape, and some kernels also by the row's place in the slab).

    The layout is the thread's workspace ``signs`` view, valid until the
    thread's next ``_slabs``.
    """
    count, width = rows.shape
    lead = first % product_rows
    laid = _WORKSPACE.take("signs", (-(-(lead + count) // product_rows) * product_rows, width))
    laid[:lead] = 0.0
    laid[lead : lead + count] = rows
    laid[lead + count :] = 0.0
    return laid, lead


class _PointCoords:
    """Batch iterates stored as vectors of R^p (the plain representation).

    Both representations take over the fresh float64 array of points they
    are built from: it is divided by ``unit`` in place and, like every
    array they hold, made read-only, so one object can be shared by
    concurrent solves and kept on a sample.  The products take stacks of
    rows with any leading shape.
    """

    def __init__(self, points):
        self.unit = _in_units(points)
        self.points = points
        self.sq_norms = np.einsum("ij,ij->i", points, points)
        self.width = points.shape[1]
        points.flags.writeable = self.sq_norms.flags.writeable = False

    @cached_property
    def points_t(self):
        """points.T made contiguous: a stack of slabs multiplies it at about
        half the cost of the transposed view.  Built on first use, so fits
        (one-row products, which take the view) never pay for the copy."""
        points_t = np.ascontiguousarray(self.points.T)
        points_t.flags.writeable = False
        return points_t

    def project(self, coef, out=None):
        """Inner products <beta_b, x_i> (into ``out``) and squared norms ||beta_b||^2."""
        right = self.points.T if coef.shape[-2] == 1 else self.points_t
        return np.matmul(coef, right, out=out), np.einsum("...j,...j->...", coef, coef)

    def combine(self, weights, out=None):
        """sum_i weights[b, i] * x_i for every row b, into ``out``."""
        return np.matmul(weights, self.points, out=out)

    def norm(self, coef):
        return np.sqrt(np.einsum("...j,...j->...", coef, coef))

    def to_points(self, coef):
        """A new array of the points beta_b (never ``coef`` itself)."""
        return coef.copy()

    def peaks(self, coef):
        """max|beta_b| of every row b, as max|to_points(coef)| along its rows."""
        return _max_abs(coef)

    def vertex(self, k, sign):
        """The multiplied data point sign * x_k."""
        return sign * self.points[k]


class _SpanCoords:
    """Batch iterates stored as coefficients a_b in R^n, beta_b = a_b @ points.

    An iteration started at the origin only ever forms convex combinations of
    its iterate and the multiplied points, so it stays in their row span.
    With the Gram matrix G = points @ points.T every inner product and norm
    the solver needs is a G-form of n-vectors, and one iteration costs
    O(m n^2) instead of O(m n p).  Worth it when p > n.
    """

    def __init__(self, points):
        self.unit = _in_units(points)
        self.points = points
        self.gram = points @ points.T
        self.sq_norms = np.diagonal(self.gram).copy()
        self.width = points.shape[0]
        points.flags.writeable = self.gram.flags.writeable = self.sq_norms.flags.writeable = False

    def project(self, coef, out=None):
        """As :meth:`_PointCoords.project`, with beta_b = coef[b] @ points."""
        prod = np.matmul(coef, self.gram, out=out)
        # G is only positive semi-definite to rounding; clamp the forms
        return prod, np.maximum(np.einsum("...j,...j->...", coef, prod), 0.0)

    def combine(self, weights, out=None):
        """The weights are the coefficients of the combination; ``out`` is unused."""
        return weights

    def norm(self, coef):
        return np.sqrt(self.project(coef, out=_WORKSPACE.take("norm", coef.shape))[1])

    def to_points(self, coef):
        return coef @ self.points

    def peaks(self, coef):
        """max|c| along each row c of ``to_points(coef)``, for a stack of
        slabs, without that (rows x p) matrix: each slab runs the product
        ``to_points`` runs on it, into one buffer, and is reduced while it
        is in cache."""
        out = np.empty(coef.shape[:-1])
        slab = _WORKSPACE.take("peaks", (coef.shape[-2], self.points.shape[1]))
        for s, rows in enumerate(coef):
            np.matmul(rows, self.points, out=slab)
            out[s] = _max_abs(slab)
        return out

    def vertex(self, k, sign):
        unit = np.zeros(self.points.shape[0])
        unit[k] = sign
        return unit


def _vertex_solution(mul, k, eps_anchor):
    """If point k of ``mul`` minimizes sum_i ||mul_i - beta||, return it and
    the distances of all points from it, else None.

    A data point is optimal exactly when the summed directions of the other
    points, evaluated at it, have norm at most its multiplicity.  Weiszfeld
    contracts only linearly into such a vertex, so detecting optimality
    directly avoids a stall.
    """
    vertex = mul[k]
    diff = mul - vertex
    dnorm = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    at_vertex = dnorm <= eps_anchor
    pull = (diff[~at_vertex] / dnorm[~at_vertex, None]).sum(axis=0)
    if np.linalg.norm(pull) <= at_vertex.sum():
        return vertex, dnorm
    return None


def _newton_polish(mul, start, eps_anchor, grad_bound):
    """Damped Newton finish of min sum_i ||mul_i - beta|| from ``start``.

    For a row whose fixed-point iteration crawls: an optimum a small
    distance from a data point slows the contraction to 1 - O(distance);
    the objective is smooth there, so a few backtracking Newton steps finish
    the job.  Returns (beta, grad_norm) on success, None when no descent is
    possible.
    """
    p = mul.shape[1]
    beta_r = start.copy()

    def distances(b):
        diff = mul - b
        return diff, np.sqrt(np.einsum("ij,ij->i", diff, diff))

    diff, d = distances(beta_r)
    value = d.sum()
    for _ in range(60):
        if d.min() <= eps_anchor:
            snapped = _vertex_solution(mul, int(d.argmin()), eps_anchor)
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


def _solve_batch(coords, signs, config, first=0, peaks=False):
    """Minimize sum_i ||signs[b, i] * x_i - beta_b|| for every batch row b.

    ``coords`` (:class:`_PointCoords` or :class:`_SpanCoords` over the x_i)
    holds the points in its units; every row starts at the origin, and the
    radii and the step test are ``config``'s constants in those units.  Vertex
    checks and the Newton polish run on points of R^p.  Returns (centers in
    R^p, multiplied back by ``coords.unit``, iterations, grad_norm); with
    ``peaks``, each row's max|center| in place of its center, taken slab by
    slab (``coords.peaks``), so no (rows x p) matrix of centers is formed.

    Each sweep takes the row minima of the (rows x n) distance matrix once,
    and they open the rescue paths:

    - below 0.02, every 4th sweep: the nearest point is tested for
      optimality and the row snaps to it if it is the minimizer, keeping the
      test's distances from it;
    - at or below the anchor radius: the coincident entries get weight 0.

    Every row steps to numer / denom.  A row with eta > 0 coincident points
    then takes the Vardi-Zhang blend of that target (its iterate where every
    weight is 0) with its iterate, lambda = min(1, eta / ||R||), or 1 when
    the residual R is 0.  Non-finite distances raise DegenerateSample; rows
    still active at t % 256 == 0 get a Newton polish, and a row out of
    iterations raises DidNotConverge with its index.

    Row b is replicate ``first + b`` of its bootstrap and sits in slot
    (first + b) % ``config.product_rows`` of its slab; zero-sign rows that
    never run fill the other slots (:func:`_slabs`).  Every product of a
    sweep runs on the slabs that still hold an active row, so a row's bits
    depend on its own signs and slot alone: a replicate solved alone (at its
    ``first``) equals its row in any batch.  While every batch row is active
    the sweep steps the whole layout and keeps the batch rows' steps; the
    padding rows stay at the origin, so their distances are the points'
    norms, finite and never kept.  After that it gathers the running slabs,
    steps all their rows and keeps the steps of the active ones.

    The batch-sized arrays are views of the thread's workspace; what the
    solve returns is its own, so a result outlives later solves.  Having no
    second set of buffers, the solve is not re-entrant on one thread.
    """
    points = coords.points
    sq_norms = coords.sq_norms
    n = points.shape[0]
    m = signs.shape[0]
    rows = config.product_rows
    signs, lead = _slabs(signs, rows, first)
    total = signs.shape[0]
    width = coords.width
    beta = _WORKSPACE.take("beta", (total, width))
    beta[...] = 0.0  # the origin start, and padding rows that stay 0
    eps_anchor = config.anchor_eps
    grad_bound = n * config.grad_tol

    iterations = np.zeros(total, dtype=np.int64)
    grad_norm = np.zeros(total)
    active = np.zeros(total, dtype=bool)
    active[lead : lead + m] = True
    polished = {}  # row -> center in R^p, set by the Newton finish

    batch = slice(lead, lead + m)

    def stacked(laid):
        return laid.reshape(-1, rows, laid.shape[1])

    def gather(role, source, idx):
        # mode="clip" writes straight into out (mode="raise" buffers)
        return np.take(source, idx, axis=0, mode="clip", out=_WORKSPACE.take(role, (idx.size, source.shape[1])))

    for t in range(1, config.max_iter + 1):
        if t % 256 == 0:
            # anything still active this late is likely in the near-vertex
            # crawl; a second-order finish costs less than more sweeps
            for row in np.nonzero(active)[0]:
                start = coords.to_points(beta[row : row + 1])[0]
                out = _newton_polish(signs[row][:, None] * points, start, eps_anchor, grad_bound)
                if out is not None:
                    polished[row], grad_norm[row] = out
                    iterations[row] = t
                    active[row] = False
        every = active[batch].all()
        if every:
            # the whole layout; padding rows have zero signs and are never kept
            za, ba, live = signs, beta, active
        else:
            # the rows of the running slabs, padding and stopped rows included
            running = active.reshape(-1, rows).any(axis=1)
            if not running.any():
                break
            idx = np.nonzero(np.repeat(running, rows))[0]
            za, ba, live = gather("running_signs", signs, idx), gather("running_beta", beta, idx), active[idx]
        prod, sq = coords.project(stacked(ba), out=_WORKSPACE.take("project", (ba.shape[0] // rows, rows, n)))
        prod, sq = prod.reshape(-1, n), sq.reshape(-1)
        # dist = sqrt(max(sq_norms - 2 z prod + sq, 0)), built in prod's buffer
        # (2 prod) z is exact for z = +-1, so it equals (2 z) prod
        dist = np.multiply(prod, 2.0, out=prod)
        dist *= za
        np.subtract(sq_norms, dist, out=dist)
        dist += sq[:, None]
        np.maximum(dist, 0.0, out=dist)
        np.sqrt(dist, out=dist)
        row_min = dist.min(axis=1)
        if not np.isfinite(dist.max()):  # max propagates NaN
            raise DegenerateSample("non-finite distances encountered")

        if t % 4 == 0:
            for j in np.nonzero(live & (row_min < 0.02))[0]:
                k = int(dist[j].argmin())
                snapped = _vertex_solution(za[j][:, None] * points, k, eps_anchor)
                if snapped is not None:
                    ba[j] = coords.vertex(k, za[j, k])
                    dist[j] = snapped[1]
                    row_min[j] = dist[j].min()

        # a point within the anchor radius of its iterate gets weight 0
        coincide = dist <= eps_anchor if (row_min <= eps_anchor).any() else None
        with np.errstate(divide="ignore"):
            weights = np.divide(1.0, dist, out=dist)
        eta = np.zeros(ba.shape[0])
        if coincide is not None:
            weights[coincide] = 0.0
            eta = coincide.sum(axis=1).astype(np.float64)
        denom = weights.sum(axis=1)
        weights *= za
        numer = coords.combine(stacked(weights), out=_WORKSPACE.take("combine", (ba.shape[0] // rows, rows, width)))
        numer = numer.reshape(-1, width)
        resid = _WORKSPACE.take("resid", ba.shape)
        np.multiply(ba, denom[:, None], out=resid)
        np.subtract(numer, resid, out=resid)
        resid_norm = coords.norm(stacked(resid)).reshape(-1)
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

        grad_ok = (resid_norm <= grad_bound) | (resid_norm <= eta)
        done = (step < config.tol) & grad_ok

        if every:
            beta[batch] = new[batch]
            iterations[batch] = t
            grad_norm[batch] = resid_norm[batch]
            active[batch] = ~done[batch]
        else:
            # rows that stopped before this sweep keep their centers
            np.copyto(ba, new, where=live[:, None])
            beta[idx] = ba
            stepped = idx[live]
            iterations[stepped] = t
            grad_norm[stepped] = resid_norm[live]
            active[idx[live & done]] = False

    if active.any():
        row = int(np.nonzero(active)[0][0])
        raise DidNotConverge(config.max_iter, grad_norm[row], replicate=row - lead)
    # back from units, before the mapping to R^p (unit is a power of two, so
    # scaling the width-wide coefficients is exact and cheaper than the result)
    beta *= coords.unit
    if peaks:
        out = coords.peaks(stacked(beta)).reshape(total)
        for row, center in polished.items():
            out[row] = _max_abs(center * coords.unit)
    else:
        out = coords.to_points(stacked(beta)).reshape(total, -1)
        for row, center in polished.items():
            out[row] = center * coords.unit
    return out[batch], iterations[batch], grad_norm[batch]


def _coordinate_median(points):
    """Coordinate-wise median of the rows, as ``np.median(points, axis=0)`` gives it.

    Finite input needs none of np.median's NaN handling, whose first call
    imports numpy.ma; a partition at the middle order statistics (their
    average (a + b) / 2.0 for even n) gives the same bits.
    """
    h = points.shape[0] // 2
    if points.shape[0] % 2:
        return np.partition(points, h, axis=0)[h]
    low, high = np.partition(points, (h - 1, h), axis=0)[h - 1 : h + 1]
    return (low + high) / 2.0


def _fit_center(points, config):
    """Spatial median of the rows of ``points``.

    The points are centred on their coordinate-wise median, solved from the
    origin in their own units, and the median is added back.  Returns
    (center, iterations, unit).  Out of iterations, it raises DidNotConverge
    without a replicate index: a fit is no bootstrap replicate.
    """
    median = _coordinate_median(points)
    coords = _PointCoords(points - median)
    try:
        beta, iters, _ = _solve_batch(coords, np.ones((1, points.shape[0])), config)
    except DidNotConverge as err:
        raise DidNotConverge(err.iterations, err.grad_norm) from None
    return beta[0] + median, int(iters[0]), coords.unit


def spatial_median(sample: Sample) -> SpatialMedianFit:
    """Minimize the total Euclidean distance to the observations.

    The solve starts at the coordinate-wise median (see ``_fit_center``).
    Residual-based quantities in the returned fit exclude observations
    coincident with the solution (residual norm below the anchor radius),
    with the divisor reduced.

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
    theta, iterations, unit = _fit_center(x, _FIT_CONFIG)
    # the data's own norms (for the objective) while no residual is alive, so
    # their n x p temporaries never overlap the residuals'
    data_norms = _row_norms(x).sum()

    # in the solver's units: unit is a power of two, so dividing is exact
    residuals = x - theta
    residuals /= unit
    norms = np.linalg.norm(residuals, axis=1)
    nonzero = norms > _FIT_CONFIG.anchor_eps
    k = int(nonzero.sum())
    if k:
        # the directions and their squares in the residuals' own buffer
        directions = residuals if k == sample.n else residuals[nonzero]
        directions /= norms[nonzero, None]
        grad = float(np.linalg.norm(directions.sum(axis=0)))
        zeta1 = float((1.0 / norms[nonzero]).mean() / unit)
        b_diag = np.square(directions, out=directions).sum(axis=0) / k
    else:
        grad = 0.0
        zeta1 = float("nan")
        b_diag = np.full(sample.p, np.nan)
    objective = float(norms.sum() * unit - data_norms)
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


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, at any magnitude.

    Each row is divided by a power of two above its largest entry before its
    norm is taken, and the norm multiplied back: both exact, so no square
    overflows or underflows.
    """
    _, peak = np.frexp(_max_abs(rows))
    return np.ldexp(np.linalg.norm(np.ldexp(rows, -peak[:, None]), axis=1), peak)


def _unit_rows(centered: np.ndarray) -> np.ndarray:
    """Each row of ``centered`` divided by its norm; zero rows stay zero."""
    norms = _row_norms(centered)
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
