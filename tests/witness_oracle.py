"""Full-grid reference for `mechlink.stats.witness_distribution`.

Every Gauss-Legendre node's conditional CDF is evaluated at every bin
edge, with no bracketing of the edges where it is exactly 0 or 1, and
the weighted CDF differences are added into the bin masses node by node,
in the order production adds them, so the bracketed production path must
reproduce it bit for bit.
"""

from __future__ import annotations

import numpy as np

from mechlink import stats


def full_grid_cdf(tally_, det) -> tuple:
    """Node CDFs at every edge (edges x nodes) and the node weights."""
    a, weights, post_b = stats._witness_nodes(tally_, det)
    n_bins = int(round((stats.WITNESS_MAX - stats.WITNESS_MIN)
                       / stats.WITNESS_GRID_STEP))
    edges = stats.WITNESS_MIN + stats.WITNESS_GRID_STEP * np.arange(n_bins + 1)
    return stats._conditional_cdf(a, edges[:, None], *post_b), weights


def full_grid_distribution(tally_, det) -> stats.WitnessDistribution:
    cdf, weights = full_grid_cdf(tally_, det)
    n_bins = len(cdf) - 1
    grid = stats.WITNESS_MIN + (np.arange(n_bins) + 0.5) * stats.WITNESS_GRID_STEP
    mass = np.zeros(n_bins)
    for column, weight in zip(np.diff(cdf, axis=0).T, weights):
        mass += column * weight
    below = float(cdf[0] @ weights)
    ml, lower, upper = stats._mode_and_interval(grid, mass, below)
    return stats.WitnessDistribution(
        grid=grid, mass=mass, ml_value=ml, lower=lower, upper=upper,
        below=below, above=float((1.0 - cdf[-1]) @ weights))
