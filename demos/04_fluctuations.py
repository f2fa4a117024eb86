"""How big are the fluctuations, and when do they take over?

For a fixed finite N the relative fluctuation of every level diverges at
both temperature extremes, the variance of level j peaks exactly at T = j,
different levels are always anticorrelated, and the fluctuation of the
occupation vector as a whole saturates at a finite high-temperature value.
"""
import math

import numpy as np

from boltzgas import (
    covariance_matrix,
    max_variance_point,
    pearson_correlation,
    std_over_mean,
    total_fluctuation_ratio,
    variance_limit,
)

n = 100
print(f"relative fluctuation of the level-1 density at N={n}:")
for t in (0.01, 0.1, 1.0, 10.0, 100.0):
    ratio = std_over_mean(n, t, 1)
    marker = "  <-- fluctuations exceed the mean" if ratio > 1 else ""
    print(f"  T={t:>6}: std/mean = {ratio:8.3f}{marker}")

print("\nvariance peaks (T*, peak mean density, peak variance):")
for level in (1, 2, 3):
    t_star, x_max, sigma_sq = max_variance_point(n, level)
    grid = np.logspace(-1, 1, 500)
    best = grid[int(np.argmax([variance_limit(n, t, level) for t in grid]))]
    print(f"  level {level}: T* = {t_star} (grid search {best:.3f}), x = {x_max:.4f}, var = {sigma_sq:.3e}")

print("\nlevel-pair correlations are negative, strongest at intermediate T:")
for t in (0.1, 1.0, 10.0):
    print(f"  T={t:>4}: corr(1,2) = {pearson_correlation(t, 1, 2):+.4f}")

cov = covariance_matrix(n, 1.0, 4)
print("\ncovariance of (n_0..n_4) at T=1 (diagonal positive, rest negative):")
for row in cov:
    print("  " + " ".join(f"{value:8.3f}" for value in row))

print("\ntotal fluctuation of the whole occupation vector (root-trace / L1 mean):")
for size in (10, 50, 90):
    plateau = 1.0 / math.sqrt(size * (1.0 - math.exp(-size)))
    values = [total_fluctuation_ratio(size, size * t) for t in (0.01, 1.0, 100.0, 1e4)]
    print(
        f"  N={size:>2}: "
        + "  ".join(f"{v:.4f}" for v in values)
        + f"   (high-T plateau {plateau:.4f})"
    )
print("  unlike a single level, the total saturates instead of diverging")
