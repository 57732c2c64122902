"""Finer-band reference for `mechlink.stats.witness_distribution`.

The posterior on the band `witness_distribution` lays out, at its step
divided by `refine`: each Gauss-Legendre node's conditional CDF is
evaluated at every bin edge, one node at a time, with no chunking, and
its weighted CDF differences are added into the bin masses.
"""

from __future__ import annotations

import numpy as np

from mechlink import stats


def band_distribution(tally_, det, refine: int = 10) -> stats.WitnessDistribution:
    a, weights, post_b = stats._witness_nodes(tally_, det)
    step, first, last = stats._witness_band(a, weights, post_b)
    fine = step / refine
    edges = fine * np.arange(refine * first, refine * last + 1.0)
    mass = np.zeros(len(edges) - 1)
    below = above = 0.0
    for node, weight in zip(a, weights):
        cdf = stats._conditional_cdf(node, edges, *post_b)
        mass += np.diff(cdf) * weight
        below += cdf[0] * weight
        above += (1.0 - cdf[-1]) * weight
    grid = edges[:-1] + 0.5 * fine
    ml, lower, upper = stats._mode_and_interval(grid, mass, below)
    return stats.WitnessDistribution(grid=grid, mass=mass, ml_value=ml,
                                     lower=lower, upper=upper,
                                     below=float(below), above=float(above))
