"""Heating and decay physics of a single device.

Occupation follows the linear rate equation

    dn/dt = -decay * n + bath_k * exp(-bath_gamma * t) + decay * n_init

whose closed-form solution drives the delay evolution in the protocol
and the pump-probe fit.  The closed-form single-device cross-correlation
of a low-occupation noise budget serves the fiber planner; the
visibility ceiling it implies is kept for library callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# relative rate difference below which the degenerate (equal-rate) limit
# form of the occupation solution is used
_DEGENERATE_RTOL = 1e-9

# pump-probe fit: grid points per log rate, grid minima polished, steps
# allowed per polish, and the relative chi2 gain at which a polish ends
PROFILE_GRID = 160
PROFILE_STARTS = 4
POLISH_STEPS = 1000
POLISH_FTOL = 1e-12


class NoiseModelError(ValueError):
    pass


class FitError(NoiseModelError):
    pass


@dataclass(frozen=True)
class HeatingParams:
    """Rate-equation parameters, all in 1/s and phonons."""

    decay: float            # energy decay rate of the oscillator
    bath_gamma: float       # decay rate of the transient hot bath
    bath_k: float           # coupling into the transient bath, phonons/s
    n_init: float = 0.0     # equilibrium occupation
    n_final: float = 0.0    # constant probe-detection offset

    def __post_init__(self):
        for name in ("decay", "bath_gamma", "bath_k", "n_init"):
            if getattr(self, name) < 0:
                raise NoiseModelError(f"{name} must be non-negative")


def occupation(t, params: HeatingParams, n0: float):
    """Mean occupation at time(s) t for initial occupation n0.

    Exact solution of the rate equation; the equal-rate case is handled
    by the t*exp(-decay*t) limit form.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise NoiseModelError("time must be non-negative")
    g, gam, k, n_eq = params.decay, params.bath_gamma, params.bath_k, params.n_init
    decay_term = np.exp(-g * t)
    if abs(g - gam) <= _DEGENERATE_RTOL * max(g, gam, 1e-300):
        driven = k * t * decay_term
    else:
        driven = k / (g - gam) * (np.exp(-gam * t) - decay_term)
    out = n_eq + (n0 - n_eq) * decay_term + driven
    return out if out.ndim else float(out)


def driven_occupation(t, params: HeatingParams):
    """Occupation accumulated from zero initial occupation (driven part)."""
    return occupation(t, params, 0.0)


def pump_probe_model(t, a, b, decay, bath_gamma, n_final):
    """Detected probe signal a*exp(-decay*t) - b*exp(-bath_gamma*t) + n_final."""
    return a * np.exp(-decay * t) - b * np.exp(-bath_gamma * t) + n_final


@dataclass
class PumpProbeFit:
    params: HeatingParams
    amplitude_fast: float          # a, decaying with the oscillator
    amplitude_rise: float          # b, decaying with the bath
    chi2: float
    covariance: np.ndarray
    residuals: np.ndarray


def fit_pump_probe(t, signal, sigma=None) -> PumpProbeFit:
    """Weighted fit of d(t) = a e^{-decay t} - b e^{-bath_gamma t} + n_final
    by variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10, 1973):
    the profiled chi2 is scanned over decay < bath_gamma (the mirror a, b ->
    -b, -a swaps the rates) on a log grid over [1e-3, 1e4] / t_max, and its
    lowest local minima are polished by damped Gauss-Newton in the log rates
    on the reduced Jacobian (Kaufman, BIT 15, 1975)."""
    t = np.asarray(t, dtype=float)
    d = np.asarray(signal, dtype=float)
    if t.shape != d.shape or t.ndim != 1 or not np.isfinite([t, d]).all():
        raise FitError("time and signal arrays must be finite, 1-d and equal length")
    if len(t) < 6:
        raise FitError("need at least 6 samples spanning both timescales")
    if sigma is None:
        sigma = np.full_like(d, max(np.std(d), 1e-12) * 0.1)
    else:
        sigma = np.asarray(sigma, dtype=float)
        if not (np.isfinite(sigma).all() and (sigma > 0).all()):
            raise FitError("uncertainties must be finite and positive")

    span = d.max() - d.min()
    if span < 1e-12 or span < 0.01 * np.mean(sigma):
        raise FitError("degenerate fit: signal has no dynamic range")

    order = np.argsort(t)
    t, y, sigma = t[order], d[order] / sigma[order], sigma[order]
    box = np.log([1e-3, 1e4]) - math.log(max(t[-1], 1e-12))

    def profile(x):
        # at log rates x: linear coefficients, weighted residual, reduced Jacobian
        rates = np.exp(x)
        e = np.exp(-np.outer(t, rates)) / sigma[:, None]
        basis = np.column_stack([e * [1.0, -1.0], 1.0 / sigma])
        coef = np.linalg.lstsq(basis, y, rcond=None)[0]
        dmodel = -rates * t[:, None] * e * [coef[0], -coef[1]]
        jac = dmodel - basis @ np.linalg.lstsq(basis, dmodel, rcond=None)[0]
        return coef, basis @ coef - y, jac

    def polish(x):
        # Levenberg's damping falls tenfold after each gain, rises otherwise
        coef, resid, jac = profile(x)
        damping = 1e-3
        for _ in range(POLISH_STEPS):
            chi2 = resid @ resid
            shift = math.sqrt(damping * np.sum(jac * jac)) * np.eye(2)
            step = np.linalg.lstsq(np.vstack([jac, shift]),
                                   np.append(-resid, [0.0, 0.0]), rcond=None)[0]
            trial = profile(new := np.clip(x + step, *box))
            if trial[1] @ trial[1] < chi2:
                x, (coef, resid, jac), damping = new, trial, 0.1 * damping
                if chi2 - resid @ resid <= POLISH_FTOL * chi2:
                    return float(resid @ resid), x, coef, resid
            elif damping < 1e20:
                damping *= 10.0
            else:                   # no step gains anything: a minimum
                return float(chi2), x, coef, resid
        raise FitError("pump-probe fit did not converge")

    # grid chi2: with the constant and the slower exponential projected out
    # of everything, each faster one removes its squared normalized overlap
    grid = np.linspace(*box, PROFILE_GRID)
    cols = np.exp(-np.outer(np.exp(grid), t)) / sigma
    chi = np.full((PROFILE_GRID, PROFILE_GRID), np.inf)
    for i in range(PROFILE_GRID - 1):
        q = np.linalg.qr(np.column_stack([1.0 / sigma, cols[i]]))[0]
        rest, y_rest = cols[i + 1:] - cols[i + 1:] @ q @ q.T, y - q @ (q.T @ y)
        chi[i, i + 1:] = y_rest @ y_rest - (rest @ y_rest) ** 2 / np.fmax(
            np.einsum("ij,ij->i", rest, rest), np.finfo(float).tiny)
    window = np.lib.stride_tricks.sliding_window_view(
        np.pad(chi, 1, constant_values=np.inf), (3, 3)).min(axis=(2, 3))
    minima = np.flatnonzero((chi == window) & np.isfinite(chi))
    starts = minima[np.argsort(chi.flat[minima])[:PROFILE_STARTS]]
    chi2, x, coef, resid = min(map(polish, grid[np.column_stack(
        np.unravel_index(starts, chi.shape))]), key=lambda fit: fit[0])

    # decay < bath_gamma unless only the mirror has bath_k >= 0 (a slow bath)
    (a, b, c), (g, gam) = coef, np.exp(x)
    if g > gam:
        a, b, g, gam = -b, -a, gam, g
    if b < 0 <= a:
        a, b, g, gam = -b, -a, gam, g
    if b * (gam - g) < 0:
        raise FitError("a cooling transient: neither labelling has bath_k >= 0")
    if (min(abs(a), abs(b)) < 1e-9 * max(abs(a), abs(b), 1.0)
            or abs(g - gam) < 1e-6 * max(g, gam)):
        raise FitError("degenerate fit: rise component unidentifiable")
    e = np.exp(-np.outer(t, [g, gam])) / sigma[:, None]
    jac = np.column_stack([e * [1.0, -1.0], -t[:, None] * e * [a, -b], 1.0 / sigma])
    try:
        cov = np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:
        raise FitError("degenerate fit: singular information matrix")
    return PumpProbeFit(params=HeatingParams(decay=g, bath_gamma=gam,
                                             bath_k=b * (gam - g), n_final=c),
                        amplitude_fast=a, amplitude_rise=b,
                        chi2=chi2, covariance=cov, residuals=resid)


def read_pump_probe_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Load `t_ns,signal,sigma` rows; returns times in seconds."""
    raw = np.genfromtxt(path, delimiter=",", names=True)
    for col in ("t_ns", "signal", "sigma"):
        if col not in (raw.dtype.names or ()):
            raise NoiseModelError(f"pump-probe CSV missing column {col!r}")
    return raw["t_ns"] * 1e-9, raw["signal"], raw["sigma"]


# ---------------------------------------------------------------------------
# cross-correlation budget


@dataclass(frozen=True)
class NoiseBudget:
    """Noise terms entering the pump/read cross-correlation of one device.

    All terms are occupations referred to the detected-phonon scale, n_th
    the thermal occupation at the delay the formula is evaluated at, and
    must stay well below one for the formula to apply.
    """

    n_th: float
    p_pump: float
    n_leak: float
    n_bg: float
    decay: float

    def __post_init__(self):
        for name in ("n_th", "p_pump", "n_leak", "n_bg"):
            v = getattr(self, name)
            if not 0 <= v < 0.5:
                raise NoiseModelError(f"{name}={v} outside the validity range [0, 0.5)")
        if self.decay < 0:
            raise NoiseModelError("decay must be non-negative")


def g2_cross(t: float, budget: NoiseBudget) -> float:
    """Pump/read second-order coherence of a single device at delay t.

    g2(t) = 1 + e^{-decay t} / (n_th + p_pump e^{-decay t} + n_leak + n_bg)
    """
    e = math.exp(-budget.decay * t)
    denom = budget.n_th + budget.p_pump * e + budget.n_leak + budget.n_bg
    if denom < 1e-9:
        raise NoiseModelError("noise denominator vanishes; formula invalid")
    return 1.0 + e / denom


def invert_noise_budget(g2_value: float, t: float, p_pump: float,
                        n_leak: float, n_bg: float, decay: float) -> float:
    """Thermal occupation implied by a measured cross-correlation.

    Negative results are returned as-is (the caller decides how to
    report them); g2 <= 1 carries no quantum correlation to invert.
    """
    if g2_value <= 1.0:
        raise NoiseModelError("no quantum correlation: g2 must exceed 1")
    e = math.exp(-decay * t)
    return e / (g2_value - 1.0) - p_pump * e - n_leak - n_bg


def visibility_bound(t: float, budget_a: NoiseBudget, budget_b: NoiseBudget) -> float:
    """Visibility ceiling V_max = C / (C + 2) from single-device noise, with
    C = min(g2_A, g2_B) - 1 the bound on the two-device contrast at delay t."""
    c = min(g2_cross(t, budget_a), g2_cross(t, budget_b)) - 1.0
    if c <= 0:
        return 0.0
    return c / (c + 2.0)
