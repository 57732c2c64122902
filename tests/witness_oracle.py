"""References for `mechlink.stats.witness_distribution`.

`conditional_cdf` is the witness kernel without pruning: both roots'
beta CDFs run their continued fraction for every (edge, node) pair.
`band_distribution` is the posterior on the band `witness_distribution`
lays out, at its step divided by `refine`: each Gauss-Legendre node's
conditional CDF is evaluated at every bin edge, one node at a time, with
no chunking, and its weighted CDF differences are added into the bin
masses.
"""

from __future__ import annotations

import numpy as np

from mechlink import stats


def conditional_cdf(a, w, c, n, scale) -> np.ndarray:
    """P(W(a, b) <= w) for b = scale * Beta(c + 1, n - c + 1), over a and w.

    The roots r1, r2 of W(a, b) = w and the cases on w and D are those of
    `stats._conditional_cdf`; both roots' CDFs are evaluated everywhere.
    """
    s = 2.0 * a - 1.0
    d = 1.0 + w * s
    real = d >= 0.0
    root = np.sqrt(np.where(real, d, 0.0))
    with np.errstate(divide="ignore"):
        x = np.stack((a - 2.0 * s / (1.0 + root),        # r1
                      a + 2.0 * (1.0 + root) / w))       # r2
    x /= scale
    np.clip(x, 0.0, 1.0, out=x)
    f = (x >= 1.0).astype(float)
    inner = (x > 0.0) & (x < 1.0)
    tail, _, lam = stats._beta_tail([(c + 1.0, n - c + 1.0)], 0, x[inner])
    f[inner] = np.where(lam < 0.0, 1.0 - tail, tail)
    f1, f2 = f
    outside = 1.0 - (np.where(w > 0.0, f2, 1.0) - f1)
    outside = np.where(outside > 0.0, outside, f1)
    return np.where(w < 0.0, np.where(real, f1 - f2, 0.0),
                    np.where(real, outside, 1.0))


def band_distribution(tally_, det, refine: int = 10) -> stats.WitnessDistribution:
    a, weights, post_b, b = stats._witness_nodes(tally_, det)
    step, first, last = stats._witness_band(a, weights, b)
    fine = step / refine
    edges = fine * np.arange(refine * first, refine * last + 1.0)
    mass = np.zeros(len(edges) - 1)
    below = above = 0.0
    for node, weight in zip(a, weights):
        cdf = conditional_cdf(node, edges, *post_b)
        mass += np.diff(cdf) * weight
        below += cdf[0] * weight
        above += (1.0 - cdf[-1]) * weight
    grid = edges[:-1] + 0.5 * fine
    ml, lower, upper = stats._mode_and_interval(grid, mass, below)
    return stats.WitnessDistribution(grid=grid, mass=mass, ml_value=ml,
                                     lower=lower, upper=upper,
                                     below=float(below), above=float(above))
