"""Heating and decay physics of a single device.

Occupation follows the linear rate equation

    dn/dt = -decay * n + bath_k * exp(-bath_gamma * t) + decay * n_init

whose closed-form solution drives the delay evolution in the protocol,
the pump-probe fit, the single-device cross-correlation prediction and
the visibility upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# relative rate difference below which the degenerate (equal-rate) limit
# form of the occupation solution is used
_DEGENERATE_RTOL = 1e-9


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
    """Weighted least-squares fit of the two-exponential response.

    Model: d(t) = a e^{-decay t} - b e^{-bath_gamma t} + n_final.
    Initial guesses come from a log-linear fit of the late-time tail
    (decay) and of the early rise residual (bath_gamma); both rate
    orderings are tried and the better chi^2 wins.
    """
    # scipy.optimize adds about 0.2 s to start-up; only this fit loads it
    from scipy.optimize import least_squares

    t = np.asarray(t, dtype=float)
    d = np.asarray(signal, dtype=float)
    if t.shape != d.shape or t.ndim != 1:
        raise FitError("time and signal arrays must be 1-d and equal length")
    if len(t) < 6:
        raise FitError("need at least 6 samples spanning both timescales")
    if sigma is None:
        sigma = np.full_like(d, max(np.std(d), 1e-12) * 0.1)
    else:
        sigma = np.asarray(sigma, dtype=float)
        if np.any(sigma <= 0):
            raise FitError("uncertainties must be positive")

    span = d.max() - d.min()
    if span < 1e-12 or span < 0.01 * np.mean(sigma):
        raise FitError("degenerate fit: signal has no dynamic range")

    order = np.argsort(t)
    t, d, sigma = t[order], d[order], sigma[order]

    def residual(x):
        a, b, g, gam, c = x
        return (pump_probe_model(t, a, b, g, gam, c) - d) / sigma

    def jacobian(x):
        a, b, g, gam, c = x
        eg = np.exp(-g * t)
        egam = np.exp(-gam * t)
        cols = np.stack([
            eg,
            -egam,
            -a * t * eg,
            b * t * egam,
            np.ones_like(t),
        ], axis=1)
        return cols / sigma[:, None]

    t_scale = max(t[-1], 1e-12)
    best = None
    for g0, gam0 in _initial_rates(t, d, t_scale):
        c0 = d[-1]
        a0 = max(d.max() - c0, span)
        b0 = max(a0 - (d[0] - c0), 0.1 * a0)
        x0 = np.array([a0, b0, g0, gam0, c0])
        try:
            res = least_squares(
                residual, x0, jac=jacobian,
                bounds=([0, 0, 1e-3 / t_scale, 1e-3 / t_scale, -np.inf],
                        [np.inf, np.inf, 1e4 / t_scale, 1e4 / t_scale, np.inf]),
                xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=2000)
        except ValueError:
            continue
        if best is None or res.cost < best.cost:
            best = res
    if best is None or not best.success and best.cost > 1e6:
        raise FitError("pump-probe fit did not converge")

    a, b, g, gam, c = best.x
    if b < 1e-9 * max(a, 1.0) or abs(g - gam) < 1e-6 * max(g, gam):
        raise FitError("degenerate fit: rise component unidentifiable")
    jac = jacobian(best.x)
    jtj = jac.T @ jac
    try:
        cov = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        raise FitError("degenerate fit: singular information matrix")
    chi2 = 2 * best.cost
    bath_k = b * (gam - g)
    if bath_k < 0:
        # mirrored solution: the "rise" exponential is the slower one
        a, b = -b, -a
        g, gam = gam, g
        bath_k = b * (gam - g)
    params = HeatingParams(decay=g, bath_gamma=gam, bath_k=max(bath_k, 0.0),
                           n_init=0.0, n_final=c)
    return PumpProbeFit(params=params, amplitude_fast=a, amplitude_rise=b,
                        chi2=chi2, covariance=cov, residuals=best.fun)


def _initial_rates(t, d, t_scale):
    """Two starting (decay, bath_gamma) guesses from tail / rise shapes."""
    c0 = d[-1]
    tail = d - c0
    late = tail > max(tail.max() * 0.05, 1e-12)
    g0 = 1.0 / t_scale
    if late.sum() >= 3:
        idx = np.where(late)[0]
        half = idx[len(idx) // 2:]
        if len(half) >= 2:
            slope = np.polyfit(t[half], np.log(np.maximum(tail[half], 1e-300)), 1)[0]
            if slope < 0:
                g0 = -slope
    peak = int(np.argmax(d))
    gam0 = 10.0 * g0
    if peak >= 2:
        gam0 = max(2.0 / max(t[peak], t_scale * 1e-3), 1.5 * g0)
    return [(g0, gam0), (g0, 8.0 * g0), (0.5 * g0, 20.0 * g0)]


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

    n_th may be a constant or a callable of time (seconds).  All terms
    are occupations referred to the detected-phonon scale and must stay
    well below one for the formula to apply.
    """

    n_th: float | Callable[[float], float]
    p_pump: float
    n_leak: float
    n_bg: float
    decay: float

    def thermal_at(self, t: float) -> float:
        n = self.n_th(t) if callable(self.n_th) else self.n_th
        return float(n)

    def __post_init__(self):
        for name in ("p_pump", "n_leak", "n_bg"):
            v = getattr(self, name)
            if not 0 <= v < 0.5:
                raise NoiseModelError(f"{name}={v} outside the validity range [0, 0.5)")
        if self.decay < 0:
            raise NoiseModelError("decay must be non-negative")
        if not callable(self.n_th) and not 0 <= self.n_th < 0.5:
            raise NoiseModelError("n_th outside the validity range [0, 0.5)")


def g2_cross(t: float, budget: NoiseBudget) -> float:
    """Pump/read second-order coherence of a single device at delay t.

    g2(t) = 1 + e^{-decay t} / (n_th(t) + p_pump e^{-decay t} + n_leak + n_bg)
    """
    e = math.exp(-budget.decay * t)
    denom = budget.thermal_at(t) + budget.p_pump * e + budget.n_leak + budget.n_bg
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


def contrast_bound(t: float, budget_a: NoiseBudget, budget_b: NoiseBudget) -> float:
    """Upper bound on the two-device interference contrast at delay t."""
    return min(g2_cross(t, budget_a), g2_cross(t, budget_b)) - 1.0


def visibility_bound(t: float, budget_a: NoiseBudget, budget_b: NoiseBudget) -> float:
    """Visibility ceiling V_max = C / (C + 2) from single-device noise."""
    c = contrast_bound(t, budget_a, budget_b)
    if c <= 0:
        return 0.0
    return c / (c + 2.0)
