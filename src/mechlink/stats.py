"""Counting-statistics pipeline: tallies, correlations, witness, confidence.

The measurable entanglement witness for a herald at detector j is

    W(g1, g2) = 4 (g1 + g2 - 1) / (g1 - g2)^2

over the two read-detector cross-correlations g_i = g2[r_i, p_j]; any
separable mechanical state obeys W >= 1 in a balanced setup.  Estimator
uncertainty is dominated by the few two-fold coincidences, so each g2
has the flat-prior beta posterior of its coincidence count given the
heralds.  The witness posterior is exact up to quadrature: its CDF at
the edges of a fixed witness grid is a one-dimensional integral of beta
CDFs, and the mass off the grid is reported, not folded into it.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, betaincinv

from .campaign import ClickLog
from .protocol import click_totals

WITNESS_GRID_STEP = 0.005
WITNESS_MIN, WITNESS_MAX = -2.0, 20.0
# Gauss-Legendre nodes of the witness CDF.  Against 1024 nodes, 64 put
# every bin within 9e-7 on the published tallies and on the widest
# planner tally (1 and 10 coincidences); that tally's `above` is within
# 1.2e-5, slowed by the square-root edge where the roots turn complex.
WITNESS_NODES = 64


class StatsError(ValueError):
    pass


@dataclass(frozen=True)
class CoincidenceTally:
    """Singles and two-fold coincidences of one campaign."""

    n_trials: int
    pump_singles: tuple        # C(p_1), C(p_2)
    read_singles: tuple        # C(r_1), C(r_2)
    coincidences: tuple        # ((C_r1p1, C_r1p2), (C_r2p1, C_r2p2))

    def __post_init__(self):
        if any(c < 0 for c in (*self.pump_singles, *self.read_singles)):
            raise StatsError("counts must be non-negative")
        for i in (0, 1):
            for j in (0, 1):
                c = self.coincidences[i][j]
                if c < 0:
                    raise StatsError("coincidences must be non-negative")
                if c > min(self.read_singles[i], self.pump_singles[j]):
                    raise StatsError("coincidence exceeds its singles")
        if self.n_trials < max(*self.pump_singles, *self.read_singles):
            raise StatsError("trial count below a singles count")

    def coincidence(self, read_det: int, pump_det: int) -> int:
        return self.coincidences[read_det - 1][pump_det - 1]

    def to_json_dict(self) -> dict:
        return {
            "N": self.n_trials,
            "Cp1": self.pump_singles[0], "Cp2": self.pump_singles[1],
            "Cr1": self.read_singles[0], "Cr2": self.read_singles[1],
            "Cr1p1": self.coincidences[0][0], "Cr2p1": self.coincidences[1][0],
            "Cr1p2": self.coincidences[0][1], "Cr2p2": self.coincidences[1][1],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "CoincidenceTally":
        missing = {"N", "Cp1", "Cp2", "Cr1", "Cr2",
                   "Cr1p1", "Cr2p1", "Cr1p2", "Cr2p2"} - doc.keys()
        if missing:
            raise StatsError(f"tally document missing keys: {sorted(missing)}")
        return cls(
            n_trials=int(doc["N"]),
            pump_singles=(int(doc["Cp1"]), int(doc["Cp2"])),
            read_singles=(int(doc["Cr1"]), int(doc["Cr2"])),
            coincidences=((int(doc["Cr1p1"]), int(doc["Cr1p2"])),
                          (int(doc["Cr2p1"]), int(doc["Cr2p2"]))),
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def loads(cls, text: str) -> "CoincidenceTally":
        return cls.from_json_dict(json.loads(text))


def tally(log: ClickLog) -> CoincidenceTally:
    """Count singles and per-trial pump/read coincidences from a click log."""
    singles, coincidences = click_totals(np.bincount(log.code, minlength=16))
    return CoincidenceTally(n_trials=log.n_trials,
                            pump_singles=tuple(singles[:2].tolist()),
                            read_singles=tuple(singles[2:].tolist()),
                            coincidences=tuple(map(tuple, coincidences.tolist())))


# ---------------------------------------------------------------------------
# second-order coherence from counts


@dataclass
class G2Estimate:
    value: float
    lower: float          # 16th percentile of the posterior
    upper: float          # 84th percentile
    coincidences: int
    heralds: int


def _g2_posterior(tally_: CoincidenceTally, read_det, pump_det) -> tuple:
    """(c, n, scale): g2 is scale times the coincidence fraction c / n.

    The fraction's flat-prior posterior given the n heralds is
    Beta(c + 1, n - c + 1).  Equal-length sequences of read and pump
    detectors pool the pairs they zip into: N sum C_rp / sum C_r C_p,
    with the posterior of the pooled counts.
    """
    pairs = list(zip(np.atleast_1d(read_det).tolist(),
                     np.atleast_1d(pump_det).tolist(), strict=True))
    n = sum(tally_.pump_singles[j - 1] for _, j in pairs)
    if n == 0:
        raise StatsError("zero pump singles")
    denom = sum(tally_.read_singles[i - 1] * tally_.pump_singles[j - 1]
                for i, j in pairs)
    if denom == 0:
        raise StatsError("zero read singles")
    # exact integer products, so one pair rounds exactly like N / C_r
    scale = tally_.n_trials * n / denom
    c = sum(tally_.coincidence(i, j) for i, j in pairs)
    return c, n, scale


def g2_from_counts(tally_: CoincidenceTally, read_det, pump_det) -> G2Estimate:
    """Estimator C_rp N / (C_r C_p) with its posterior's 68% interval."""
    c, n, scale = _g2_posterior(tally_, read_det, pump_det)
    return G2Estimate(value=c / n * scale,
                      lower=betaincinv(c + 1, n - c + 1, 0.16) * scale,
                      upper=betaincinv(c + 1, n - c + 1, 0.84) * scale,
                      coincidences=c, heralds=n)


# ---------------------------------------------------------------------------
# witness


def witness_from_g2(g2_r1: float, g2_r2: float) -> float:
    """Measurable witness bound from the two read-side correlations."""
    if g2_r1 < 0 or g2_r2 < 0:
        raise StatsError("correlations must be non-negative")
    d = g2_r1 - g2_r2
    if d == 0.0:
        raise StatsError("witness unbounded (no fringe contrast)")
    return 4.0 * (g2_r1 + g2_r2 - 1.0) / d**2


@dataclass
class WitnessDistribution:
    """Witness posterior on a grid, with the mass the grid cannot hold."""

    grid: np.ndarray            # bin centers
    mass: np.ndarray            # in-grid bin masses
    ml_value: float             # mode of the binned distribution
    lower: float                # 16th percentile (equal-tailed 68% interval)
    upper: float                # 84th percentile
    below: float = 0.0          # mass under the grid
    above: float = 0.0          # mass over the grid (see `symmetrize`)


def _mode_and_interval(grid: np.ndarray, mass: np.ndarray, below: float) -> tuple:
    # the mode is the heaviest bin; the 68% interval is equal-tailed, read
    # off the CDF at the bin edges (mass is uniform within a bin)
    ml_idx = int(np.argmax(mass))
    if ml_idx in (0, len(mass) - 1):
        raise StatsError(f"witness mode lies at the grid edge "
                         f"{grid[ml_idx]:g}: it may sit off the grid")
    step = grid[1] - grid[0]
    edges = np.append(grid - 0.5 * step, grid[-1] + 0.5 * step)
    cum = below + np.concatenate(([0.0], np.cumsum(mass)))
    if not cum[0] <= 0.16 < 0.84 <= cum[-1]:
        raise StatsError(f"witness 68% interval reaches off the grid "
                         f"[{edges[0]:g}, {edges[-1]:g}]")
    lower, upper = np.interp([0.16, 0.84], cum, edges)
    return float(grid[ml_idx]), float(lower), float(upper)


def _conditional_cdf(a: np.ndarray, w: np.ndarray, c: int, n: int,
                     scale: float) -> np.ndarray:
    """P(W(a, b) <= w) for b = scale * Beta(c + 1, n - c + 1), over a and w.

    With D = 1 + w (2a - 1), W(a, b) = w at b = r1, r2:
    r1 = a - 2 (2a - 1) / (1 + sqrt D), r2 = a + 2 (1 + sqrt D) / w.
    W <= w holds for b outside [r1, r2] when w >= 0 (r2 = inf at w = 0),
    and for b in [r2, r1] when w < 0; with D < 0 it holds for every b
    when w > 0 and for none when w < 0.
    """
    s = 2.0 * a - 1.0
    d = 1.0 + w * s
    real = d >= 0.0
    root = np.sqrt(np.where(real, d, 0.0))
    r1 = a - 2.0 * s / (1.0 + root)
    with np.errstate(divide="ignore"):
        r2 = a + 2.0 * (1.0 + root) / w

    def cdf(x):
        return betainc(c + 1, n - c + 1, np.clip(x / scale, 0.0, 1.0))

    f1, f2 = cdf(r1), cdf(r2)
    # 1 - P(r1 < b < r2) is exactly 1 once that mass rounds away, which
    # lets `witness_distribution` skip saturated edges.  The difference
    # cancels to exactly 0 only where f2 is 1; there the CDF is f1, the
    # tail that f1 - f2 keeps at w < 0, so the exact 0s of each node's CDF
    # are a leading run in w and its exact 1s a trailing one
    outside = 1.0 - (np.where(w > 0.0, f2, 1.0) - f1)
    outside = np.where(outside > 0.0, outside, f1)
    return np.where(w < 0.0, np.where(real, f1 - f2, 0.0),
                    np.where(real, outside, 1.0))


@functools.cache
def _legendre(nodes: int) -> tuple:
    # Gauss-Legendre nodes on [-1, 1], weights halved to average over [0, 1]
    x, weights = np.polynomial.legendre.leggauss(nodes)
    return x, 0.5 * weights


def witness_distribution(tally_: CoincidenceTally, pump_det: int,
                         witness_step: float = WITNESS_GRID_STEP) -> WitnessDistribution:
    """Exact witness posterior for heralds at `pump_det`, binned on edges.

    The CDF of W(a, b) over the two g2[r_i, p] at each bin edge is the
    mean, over a's posterior, of b's beta-CDF mass on {W <= w}
    (`_conditional_cdf`), by Gauss-Legendre in a's quantile.  Each node's
    CDF is evaluated only on its own band of edges, bracketed by a coarse
    probe; below the band it is exactly 0 and above it exactly 1.  Bin
    masses are CDF differences; the mass under WITNESS_MIN and over
    WITNESS_MAX is reported as `below` and `above`, never folded into a bin.
    """
    n_bins = int(round((WITNESS_MAX - WITNESS_MIN) / witness_step))
    edges = WITNESS_MIN + witness_step * np.arange(n_bins + 1)
    # W is symmetric in a and b.  The quadrature runs over the smaller g2:
    # W near 0 needs the other one large, and its beta CDF resolves that
    # tail exactly, where quadrature nodes would be too sparse.
    (c, n, scale), post_b = sorted(
        (_g2_posterior(tally_, i, pump_det) for i in (1, 2)),
        key=lambda post: post[0] * post[2])
    x, weights = _legendre(WITNESS_NODES)
    a = scale * betaincinv(c + 1, n - c + 1, 0.5 * (x + 1.0))
    # each node's exact 0s and 1s are a leading and a trailing run of the
    # edges (`_conditional_cdf`), so every 40th edge brackets its band: the
    # column is exactly 0 up to its last 0 probe, exactly 1 from its first
    # 1 probe, and is evaluated in between
    coarse = np.r_[0:n_bins:40, n_bins]
    probe = _conditional_cdf(a, edges[coarse, None], *post_b)
    cdf = np.zeros((n_bins + 1, len(a)))
    for k, column in enumerate(probe.T):
        lo = coarse[column == 0.0].max(initial=0)
        hi = coarse[column == 1.0].min(initial=n_bins)
        cdf[hi:, k] = 1.0
        cdf[lo:hi + 1, k] = _conditional_cdf(a[k], edges[lo:hi + 1], *post_b)

    mass = np.diff(cdf, axis=0) @ weights
    below = float(cdf[0] @ weights)
    above = float((1.0 - cdf[-1]) @ weights)
    grid = WITNESS_MIN + (np.arange(n_bins) + 0.5) * witness_step
    ml, lower, upper = _mode_and_interval(grid, mass, below)
    return WitnessDistribution(grid=grid, mass=mass, ml_value=ml, lower=lower,
                               upper=upper, below=below, above=above)


def symmetrize(dist_1: WitnessDistribution,
               dist_2: WitnessDistribution) -> WitnessDistribution:
    """Distribution of the mean of two independent witness measurements.

    Pairs of in-grid bins land on the half-step grid of the mean.  Pairs
    with a component off the grid are kept apart: both under it go to
    `below`, all others to `above`, whose mean lies over the grid's
    midpoint or is unknown (one component under the grid); counting them
    over every threshold is conservative.
    """
    step1 = dist_1.grid[1] - dist_1.grid[0]
    step2 = dist_2.grid[1] - dist_2.grid[0]
    if abs(step1 - step2) > 1e-12 or len(dist_1.grid) != len(dist_2.grid):
        raise StatsError("witness distributions live on incompatible grids")
    mass = np.convolve(dist_1.mass, dist_2.mass)
    # sum grid starts at grid1[0] + grid2[0]; the mean halves everything
    start = 0.5 * (dist_1.grid[0] + dist_2.grid[0])
    grid = start + 0.5 * step1 * np.arange(len(mass))
    in_1, in_2 = dist_1.mass.sum(), dist_2.mass.sum()
    below = dist_1.below * dist_2.below
    above = (dist_1.above * (dist_2.below + in_2 + dist_2.above)
             + (dist_1.below + in_1) * dist_2.above
             + dist_1.below * in_2 + in_1 * dist_2.below)
    ml, lower, upper = _mode_and_interval(grid, mass, below)
    return WitnessDistribution(grid=grid, mass=mass, ml_value=ml, lower=lower,
                               upper=upper, below=below, above=above)


def confidence_below(dist: WitnessDistribution, threshold: float) -> float:
    """Witness mass below `threshold`: one minus `above` and the bins over it.

    The complement keeps a confidence near 1 from passing 1 when the
    in-grid masses (CDF differences) sum past 1 by rounding.
    """
    if threshold <= 0:
        raise StatsError("threshold must be positive")
    step = dist.grid[1] - dist.grid[0]
    over = np.clip(((dist.grid + 0.5 * step) - threshold) / step, 0.0, 1.0)
    conf = 1.0 - dist.above - float(over @ dist.mass)
    if not -1e-12 <= conf <= 1.0 + 1e-12:
        raise StatsError(f"confidence {conf!r} outside [0, 1]")
    return conf


# ---------------------------------------------------------------------------
# systematic corrections


@dataclass
class SystematicCorrection:
    corrected_witness: float
    corrected_threshold: float
    components: dict


def systematic_correction(witness_value: float, flux_imbalance: float,
                          splitter_deviation: float = 0.006,
                          herald_imbalance: float = 0.02) -> SystematicCorrection:
    """Imbalance corrections: the measurable bound inflates by (1 + d^2/2).

    Returns the inflated witness, the equivalently deflated classicality
    threshold, and the per-source ledger of relative corrections.
    """
    if not 0.0 <= flux_imbalance <= 0.2:
        raise StatsError("flux imbalance outside the small-correction regime")
    components = {
        "combiner_splitting": 0.5 * splitter_deviation**2,
        "herald_balance": 0.5 * herald_imbalance**2,
        "readout_flux": 0.5 * flux_imbalance**2,
    }
    total = sum(components.values())
    return SystematicCorrection(
        corrected_witness=witness_value * (1.0 + 0.5 * flux_imbalance**2),
        corrected_threshold=1.0 / (1.0 + total),
        components=components,
    )


# ---------------------------------------------------------------------------
# fringe analysis


def visibility(values) -> float:
    """Fringe contrast (max - min) / (max + min) of a correlation sweep."""
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        raise StatsError("need at least two fringe samples")
    top, bot = float(v.max()), float(v.min())
    if top + bot == 0:
        raise StatsError("degenerate fringe: extrema sum to zero")
    return (top - bot) / (top + bot)


@dataclass
class FringeFit:
    amplitude: float
    period: float
    phase: float
    offset: float
    period_error: float
    flagged: bool = False       # amplitude consistent with zero


def fit_fringe(x, values, sigma=None) -> FringeFit:
    """Weighted sinusoid fit offset + A cos(2 pi (x - x0) / period).

    x carries its own units (radians for phase sweeps, seconds for delay
    sweeps); the fitted period is reported in the same units.
    """
    # scipy.optimize adds about 0.2 s to start-up; only the two fits load it
    from scipy.optimize import least_squares

    x = np.asarray(x, dtype=float)
    y = np.asarray(values, dtype=float)
    if x.size != y.size or x.size < 5:
        raise StatsError("need at least 5 samples to fit a fringe")
    span = x.max() - x.min()
    if sigma is None:
        sigma = np.full_like(y, max(1e-12, 0.05 * (y.max() - y.min() + 1e-12)))
    else:
        sigma = np.asarray(sigma, dtype=float)

    amp0 = 0.5 * (y.max() - y.min())
    off0 = float(np.mean(y))
    if amp0 <= 1e-12 or amp0 < 0.05 * np.mean(sigma):
        return FringeFit(amplitude=0.0, period=float("nan"), phase=0.0,
                         offset=off0, period_error=float("inf"), flagged=True)

    # coarse period scan with the quadratures solved linearly, then polish
    def quadrature_fit(period):
        w = 2 * math.pi / period
        basis = np.stack([np.ones_like(x), np.cos(w * x), np.sin(w * x)], axis=1)
        bw = basis / sigma[:, None]
        coef, *_ = np.linalg.lstsq(bw, y / sigma, rcond=None)
        resid = bw @ coef - y / sigma
        return coef, float(np.dot(resid, resid))

    # periods under ~2 sample spacings are aliases, not resolvable content
    spacing = float(np.median(np.diff(np.sort(x))))
    min_period = max(span / 12, 2.2 * spacing)
    periods = span / np.exp(np.linspace(math.log(0.4),
                                        math.log(span / min_period), 60))
    best_period, best_cost, best_coef = None, np.inf, None
    for period in periods:
        coef, cost = quadrature_fit(period)
        if cost < best_cost:
            best_period, best_cost, best_coef = period, cost, coef
    # fine local refinement around the coarse winner seeds the polish
    for period in best_period * np.linspace(0.93, 1.07, 41):
        coef, cost = quadrature_fit(period)
        if cost < best_cost:
            best_period, best_cost, best_coef = period, cost, coef

    def residual(p):
        amp, period, x0, off = p
        return (off + amp * np.cos(2 * math.pi * (x - x0) / period) - y) / sigma

    off0 = best_coef[0]
    amp_seed = math.hypot(best_coef[1], best_coef[2])
    x0_seed = math.atan2(best_coef[2], best_coef[1]) * best_period / (2 * math.pi)
    try:
        best = least_squares(
            residual, [amp_seed, best_period, x0_seed, off0],
            bounds=([0.0, span / 20, -np.inf, -np.inf],
                    [np.inf, 20 * span, np.inf, np.inf]),
            xtol=1e-13, ftol=1e-13, max_nfev=4000)
    except ValueError:
        raise StatsError("fringe fit did not converge")
    amp, period, x0, off = best.x
    jac = best.jac
    try:
        cov = np.linalg.inv(jac.T @ jac)
        period_err = float(math.sqrt(max(cov[1, 1], 0.0)))
    except np.linalg.LinAlgError:
        period_err = float("inf")
    return FringeFit(amplitude=float(amp), period=float(period),
                     phase=float(x0), offset=float(off),
                     period_error=period_err,
                     flagged=bool(amp < 2 * np.mean(sigma) / math.sqrt(x.size)))
