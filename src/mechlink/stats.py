"""Counting-statistics pipeline: tallies, correlations, witness, confidence.

The measurable entanglement witness for a herald at detector j is

    W(g1, g2) = 4 (g1 + g2 - 1) / (g1 - g2)^2

over the two read-detector cross-correlations g_i = g2[r_i, p_j]; any
separable mechanical state obeys W >= 1 in a balanced setup.  Estimator
uncertainty is dominated by the few two-fold coincidences, so per-g2
likelihoods are binomial in the coincidence count given the heralds, and
the witness distribution is the discretized pushforward of their product
onto a witness grid.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares
from scipy.stats import beta as beta_dist

from .campaign import WINDOW_PUMP, WINDOW_READ, ClickLog

# defaults of the discretization (grid step on g2, support clip, witness grid)
G2_GRID_STEP = 0.01
G2_MAX = 30.0
WITNESS_GRID_STEP = 0.005
WITNESS_MIN, WITNESS_MAX = -2.0, 20.0


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

    def __add__(self, other: "CoincidenceTally") -> "CoincidenceTally":
        return CoincidenceTally(
            n_trials=self.n_trials + other.n_trials,
            pump_singles=tuple(a + b for a, b in
                               zip(self.pump_singles, other.pump_singles)),
            read_singles=tuple(a + b for a, b in
                               zip(self.read_singles, other.read_singles)),
            coincidences=tuple(
                tuple(self.coincidences[i][j] + other.coincidences[i][j]
                      for j in (0, 1)) for i in (0, 1)),
        )


def tally(log: ClickLog, pump_window: int = WINDOW_PUMP,
          read_window: int = WINDOW_READ) -> CoincidenceTally:
    """Count singles and per-trial pump/read coincidences from a click log."""
    if pump_window == read_window:
        raise StatsError("pump and read windows overlap")
    pump_mask = log.window == pump_window
    read_mask = log.window == read_window
    pump_singles = []
    read_singles = []
    pump_trials = {}
    read_trials = {}
    for det in (1, 2):
        p_t = log.trial[pump_mask & (log.detector == det)]
        r_t = log.trial[read_mask & (log.detector == det)]
        pump_singles.append(len(p_t))
        read_singles.append(len(r_t))
        pump_trials[det] = p_t
        read_trials[det] = r_t
    coinc = tuple(
        tuple(len(np.intersect1d(read_trials[i], pump_trials[j],
                                 assume_unique=True))
              for j in (1, 2))
        for i in (1, 2))
    return CoincidenceTally(n_trials=log.n_trials,
                            pump_singles=tuple(pump_singles),
                            read_singles=tuple(read_singles),
                            coincidences=coinc)


# ---------------------------------------------------------------------------
# second-order coherence from counts


@dataclass
class G2Estimate:
    value: float
    lower: float          # 16th percentile of the posterior
    upper: float          # 84th percentile
    coincidences: int
    heralds: int

    def interval(self) -> tuple:
        return (self.lower, self.upper)


def _g2_scale(tally_: CoincidenceTally, read_det: int, pump_det: int) -> float:
    """Conversion from the conditional click fraction to normalized g2."""
    cr = tally_.read_singles[read_det - 1]
    if cr == 0:
        raise StatsError("zero read singles")
    return tally_.n_trials / cr


def g2_from_counts(tally_: CoincidenceTally, read_det, pump_det) -> G2Estimate:
    """Normalized coincidence estimator with a binomial 68% interval.

    Point estimate C_rp * N / (C_r * C_p); the interval comes from the
    flat-prior binomial posterior of the coincidence count given the
    heralds, mapped through the same normalization.  Equal-length
    sequences of read and pump detectors pool the pairs they zip into:
    N sum C_rp / sum C_r C_p, with the posterior of the pooled counts.
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
    value = c / n * scale
    post = beta_dist(c + 1, n - c + 1)
    lo = post.ppf(0.16) * scale
    hi = post.ppf(0.84) * scale
    return G2Estimate(value=value, lower=lo, upper=hi, coincidences=c, heralds=n)


def g2_grid_pmf(tally_: CoincidenceTally, read_det: int, pump_det: int,
                grid_step: float = G2_GRID_STEP,
                g2_max: float = G2_MAX) -> tuple[np.ndarray, np.ndarray]:
    """Discretized posterior of one g2 on an equidistant grid.

    Bin k covers g2 in [k*step, (k+1)*step); returned values are bin
    centers with the binomial posterior mass integrated per bin.
    """
    n = tally_.pump_singles[pump_det - 1]
    if n == 0:
        raise StatsError("zero pump singles")
    scale = _g2_scale(tally_, read_det, pump_det)
    c = tally_.coincidence(read_det, pump_det)
    n_bins = int(round(g2_max / grid_step))
    edges = np.arange(n_bins + 1) * grid_step
    q_edges = np.clip(edges / scale, 0.0, 1.0)
    cdf = beta_dist(c + 1, n - c + 1).cdf(q_edges)
    mass = np.diff(cdf)
    tail = 1.0 - cdf[-1]
    mass[-1] += tail
    total = mass.sum()
    if total <= 0:
        raise StatsError("posterior mass vanished on the grid")
    centers = edges[:-1] + 0.5 * grid_step
    return centers, mass / total


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
    """Discretized distribution of the witness bound."""

    grid: np.ndarray            # bin centers
    mass: np.ndarray
    ml_value: float             # mode of the discretized distribution
    lower: float                # 16th percentile (equal-tailed 68% interval)
    upper: float                # 84th percentile
    grid_warning: bool = False  # mode unstable under grid halving

    def interval(self) -> tuple:
        return (self.lower, self.upper)

    def cdf_below(self, threshold: float) -> float:
        return confidence_below(self, threshold)

    def to_json_dict(self) -> dict:
        return {
            "grid": self.grid.tolist(),
            "mass": self.mass.tolist(),
            "ml_value": self.ml_value,
            "lower": self.lower,
            "upper": self.upper,
            "grid_warning": self.grid_warning,
        }


def _mode_and_interval(grid: np.ndarray, mass: np.ndarray) -> tuple:
    # most-likely value is the distribution mode; the 68% interval is
    # equal-tailed (16th and 84th percentiles)
    ml_idx = int(np.argmax(mass))
    ml = float(grid[ml_idx])
    cum = np.cumsum(mass)
    lo = float(np.interp(0.16, cum, grid))
    hi = float(np.interp(0.84, cum, grid))
    return ml, lo, hi


def _prune_grid(centers: np.ndarray, mass: np.ndarray) -> tuple:
    """Drop bins carrying no meaningful posterior mass (< 1e-14 of peak)."""
    keep = mass > mass.max() * 1e-14
    return centers[keep], mass[keep]


def _witness_pushforward(centers1, mass1, centers2, mass2,
                         step: float) -> tuple[np.ndarray, np.ndarray]:
    """Push two g2 distributions through the witness onto its own grid."""
    centers1, mass1 = _prune_grid(centers1, mass1)
    centers2, mass2 = _prune_grid(centers2, mass2)
    a = centers1[:, None]
    b = centers2[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        w = 4.0 * (a + b - 1.0) / (a - b) ** 2
    weight = np.outer(mass1, mass2)
    flat_w = w.ravel()
    flat_weight = weight.ravel()
    finite = np.isfinite(flat_w)
    flat_w = np.clip(flat_w[finite], WITNESS_MIN, WITNESS_MAX)
    flat_weight = flat_weight[finite]
    n_bins = int(round((WITNESS_MAX - WITNESS_MIN) / step))
    idx = np.clip(((flat_w - WITNESS_MIN) / step).astype(int), 0, n_bins - 1)
    mass = np.bincount(idx, weights=flat_weight, minlength=n_bins)
    grid = WITNESS_MIN + (np.arange(n_bins) + 0.5) * step
    total = mass.sum()
    if total <= 0:
        raise StatsError("witness distribution is empty")
    return grid, mass / total


def witness_distribution(tally_: CoincidenceTally, pump_det: int,
                         grid_step: float = G2_GRID_STEP,
                         g2_max: float = G2_MAX,
                         witness_step: float = WITNESS_GRID_STEP) -> WitnessDistribution:
    """Witness posterior for heralds at `pump_det`, with a grid-stability flag."""

    def build(g_step, w_step):
        c1, m1 = g2_grid_pmf(tally_, 1, pump_det, g_step, g2_max)
        c2, m2 = g2_grid_pmf(tally_, 2, pump_det, g_step, g2_max)
        return _witness_pushforward(c1, m1, c2, m2, w_step)

    grid, mass = build(grid_step, witness_step)
    ml, lo, hi = _mode_and_interval(grid, mass)
    grid_h, mass_h = build(grid_step / 2, witness_step)
    ml_h, _, _ = _mode_and_interval(grid_h, mass_h)
    warning = abs(ml_h - ml) > grid_step
    return WitnessDistribution(grid=grid, mass=mass, ml_value=ml,
                               lower=lo, upper=hi, grid_warning=warning)


def symmetrize(dist_1: WitnessDistribution,
               dist_2: WitnessDistribution) -> WitnessDistribution:
    """Distribution of the mean of two independent witness measurements."""
    step1 = dist_1.grid[1] - dist_1.grid[0]
    step2 = dist_2.grid[1] - dist_2.grid[0]
    if abs(step1 - step2) > 1e-12 or len(dist_1.grid) != len(dist_2.grid):
        raise StatsError("witness distributions live on incompatible grids")
    mass = np.convolve(dist_1.mass, dist_2.mass)
    # sum grid starts at grid1[0] + grid2[0]; the mean halves everything
    start = 0.5 * (dist_1.grid[0] + dist_2.grid[0])
    grid = start + 0.5 * step1 * np.arange(len(mass))
    mass = mass / mass.sum()
    ml, lo, hi = _mode_and_interval(grid, mass)
    return WitnessDistribution(grid=grid, mass=mass, ml_value=ml,
                               lower=lo, upper=hi,
                               grid_warning=dist_1.grid_warning or dist_2.grid_warning)


def confidence_below(dist: WitnessDistribution, threshold: float) -> float:
    """Cumulative witness mass below `threshold`."""
    if threshold <= 0:
        raise StatsError("threshold must be positive")
    step = dist.grid[1] - dist.grid[0]
    edges_below = dist.grid + 0.5 * step <= threshold
    full = dist.mass[edges_below].sum()
    # partial bin straddling the threshold
    idx = np.searchsorted(dist.grid + 0.5 * step, threshold)
    if idx < len(dist.grid):
        frac = (threshold - (dist.grid[idx] - 0.5 * step)) / step
        if 0 < frac < 1:
            full += dist.mass[idx] * frac
    return float(min(max(full, 0.0), 1.0))


# ---------------------------------------------------------------------------
# systematic corrections


@dataclass
class SystematicCorrection:
    corrected_witness: float
    corrected_threshold: float
    relative_correction: float
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
        relative_correction=total,
        components=components,
    )


# ---------------------------------------------------------------------------
# fringe analysis


def visibility(values, mode: str = "extrema") -> float:
    """Fringe contrast (max - min) / (max + min) of a correlation sweep."""
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        raise StatsError("need at least two fringe samples")
    if mode == "fit":
        fit = fit_fringe(np.arange(v.size, dtype=float) * (2 * math.pi / v.size), v)
        top, bot = fit.offset + abs(fit.amplitude), fit.offset - abs(fit.amplitude)
    elif mode == "extrema":
        top, bot = float(v.max()), float(v.min())
    else:
        raise StatsError("mode must be 'extrema' or 'fit'")
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
