"""Independent reference implementations used to check the library.

Everything here deliberately avoids the package's solver internals: the
nested-grid and subgradient minimizers only ever evaluate the objective or
its subgradient, and the enumeration helpers walk all sign patterns.
"""

import itertools
import math
from fractions import Fraction

import numpy as np


def total_distance(points, beta):
    return float(np.linalg.norm(points - beta, axis=1).sum())


def nested_grid_minimizer(points, rounds=48, width=None, grid=9):
    """Shrinking-grid search for the distance-sum minimizer (p <= 3)."""
    points = np.asarray(points, dtype=np.float64)
    p = points.shape[1]
    center = points.mean(axis=0)
    if width is None:
        width = float(np.abs(points - center).max()) * 2.0 + 1.0
    offsets = np.array(list(itertools.product(np.linspace(-1, 1, grid), repeat=p)))
    for _ in range(rounds):
        candidates = center + width * offsets
        values = np.linalg.norm(points[None, :, :] - candidates[:, None, :], axis=2).sum(axis=1)
        center = candidates[int(values.argmin())]
        width *= 0.5
    return center


def subgradient_minimizer(points, iters_per_stage=300, stages=80):
    """Normalized subgradient descent with geometric step decay."""
    points = np.asarray(points, dtype=np.float64)
    beta = np.median(points, axis=0) + 0.37
    best = beta.copy()
    best_value = total_distance(points, best)
    step = float(np.abs(points).max()) or 1.0
    for _ in range(stages):
        for _ in range(iters_per_stage):
            diff = points - beta
            norms = np.linalg.norm(diff, axis=1)
            nz = norms > 0
            grad = -(diff[nz] / norms[nz, None]).sum(axis=0)
            gnorm = np.linalg.norm(grad)
            if gnorm > 0:
                beta = beta - step * grad / gnorm
            value = total_distance(points, beta)
            if value < best_value:
                best_value, best = value, beta.copy()
        beta = best.copy()
        step *= 0.5
    return best


def all_sign_patterns(n):
    """All 2^n sign vectors, each row one pattern."""
    return np.array(list(itertools.product([1.0, -1.0], repeat=n)))


def is_distance_sum_minimizer(points, beta, tol=1e-6):
    """Subgradient optimality check: interior or vertex condition.

    A point within 1e-9 of the spread of the points about beta (their
    largest distance from it) counts as coincident with beta, so the radius
    follows the data's scale and not its offset.  Norms are taken after
    dividing by a power of two above max|points - beta|, which is exact, so
    no square overflows or underflows at any magnitude.
    """
    points = np.asarray(points, dtype=np.float64)
    diff = points - beta
    peak = float(np.abs(diff).max())
    diff = diff / math.ldexp(1.0, math.frexp(peak)[1])
    norms = np.linalg.norm(diff, axis=1)
    at = norms <= 1e-9 * norms.max()
    pull = (diff[~at] / norms[~at, None]).sum(axis=0)
    return float(np.linalg.norm(pull)) <= float(at.sum()) + points.shape[0] * tol


def ks_distance(sample_a, sample_b):
    """Two-sample Kolmogorov-Smirnov sup-distance."""
    a = np.sort(np.asarray(sample_a, dtype=np.float64))
    b = np.sort(np.asarray(sample_b, dtype=np.float64))
    grid = np.unique(np.concatenate([a, b]))
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(fa - fb).max())


def are_gaussian_even_p(p):
    """Gaussian large-p efficiency ratio p Gamma((p-1)/2)^2 / (2 Gamma(p/2)^2), p even.

    With m = p/2, Gamma(m - 1/2) = (2m-2)! sqrt(pi) / (4^(m-1) (m-1)!), so the
    ratio is m pi C(2m-2, m-1)^2 / 16^(m-1): an exact rational times pi.
    """
    m = p // 2
    return float(Fraction(m * math.comb(2 * m - 2, m - 1) ** 2, 16 ** (m - 1))) * math.pi
