"""Multiplier bootstrap for the max-norm of the re-solved spatial median.

Each replicate flips the centered observations with fresh random signs and
re-solves the location problem; the spread of the replicate max-norms
calibrates simultaneous inference.  Replicates draw their signs from a
counter-based stream indexed by replicate, so the same seed reproduces the
same statistics no matter how many workers run.
"""

import numpy as np

from geomedian import (
    ar1_shape,
    bootstrap_mean,
    bootstrap_spatial_median,
    conditional_variance,
    quantile,
    spatial_median,
)
from geomedian.simdata import DistributionSpec, draw

spec = DistributionSpec("student_t", np.zeros(50), ar1_shape(50, 0.5), df=3.0)
sample = draw(spec, 150, seed=11)
fit = spatial_median(sample)

draws = bootstrap_spatial_median(sample, fit, B=400, seed=99)
again = bootstrap_spatial_median(sample, fit, B=400, seed=99, workers=4)
print("replicates reproduce bitwise across worker counts:",
      np.array_equal(draws.stats, again.stats))

for level in (0.80, 0.90, 0.95):
    print(f"  {level:.0%} replicate quantile: {quantile(draws, level):.4f}")

mean_draws = bootstrap_mean(sample, B=400, seed=99)
print(f"\nconditional variance, median target: {conditional_variance(draws):.5f}")
print(f"conditional variance, mean target:   {conditional_variance(mean_draws):.5f}")
print("(heavier tails inflate the mean's max-norm spread; the ratio of these "
      "two numbers is the bootstrap efficiency estimate)")
