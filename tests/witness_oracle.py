"""Full-grid reference for `mechlink.stats.witness_distribution`.

Every Gauss-Legendre node's conditional CDF is evaluated at every bin
edge, with no bracketing of the edges where it is exactly 0 or 1, so the
bracketed production path must reproduce it bit for bit.
"""

from __future__ import annotations

import numpy as np

from mechlink import stats


def full_grid_cdf(tally_, det) -> tuple:
    """Node CDFs at every edge (edges x nodes) and the node weights."""
    (c, n, scale), post_b = sorted(
        (stats._g2_posterior(tally_, i, det) for i in (1, 2)),
        key=lambda post: post[0] * post[2])
    x, weights = stats._legendre(stats.WITNESS_NODES)
    a = scale * stats.betaincinv(c + 1, n - c + 1, 0.5 * (x + 1.0))
    n_bins = int(round((stats.WITNESS_MAX - stats.WITNESS_MIN)
                       / stats.WITNESS_GRID_STEP))
    edges = stats.WITNESS_MIN + stats.WITNESS_GRID_STEP * np.arange(n_bins + 1)
    return stats._conditional_cdf(a, edges[:, None], *post_b), weights


def full_grid_distribution(tally_, det) -> stats.WitnessDistribution:
    cdf, weights = full_grid_cdf(tally_, det)
    n_bins = len(cdf) - 1
    grid = stats.WITNESS_MIN + (np.arange(n_bins) + 0.5) * stats.WITNESS_GRID_STEP
    mass = np.diff(cdf, axis=0) @ weights
    below = float(cdf[0] @ weights)
    ml, lower, upper = stats._mode_and_interval(grid, mass, below)
    return stats.WitnessDistribution(
        grid=grid, mass=mass, ml_value=ml, lower=lower, upper=upper,
        below=below, above=float((1.0 - cdf[-1]) @ weights))
