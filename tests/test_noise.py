"""Rate-equation, pump-probe fit and cross-correlation budget checks."""

import math

import numpy as np
import pytest

from mechlink import noise
from mechlink.noise import (
    FitError,
    HeatingParams,
    NoiseBudget,
    NoiseModelError,
    fit_pump_probe,
    g2_cross,
    invert_noise_budget,
    occupation,
    pump_probe_model,
    visibility_bound,
)

US = 1e-6
DEVICE_A = dict(decay=1 / (4.0 * US), bath_gamma=1 / (0.5 * US))


class TestOccupation:
    def test_pure_decay(self):
        p = HeatingParams(decay=1 / (4.0 * US), bath_gamma=2e6, bath_k=0.0)
        assert occupation(4.0 * US, p, 1.0) == pytest.approx(math.exp(-1), rel=1e-12)

    def test_equilibrium_limit(self):
        p = HeatingParams(decay=2.5e5, bath_gamma=2e6, bath_k=3e5, n_init=0.05)
        assert occupation(1.0, p, 0.4) == pytest.approx(0.05, abs=1e-12)

    def test_continuity_at_zero(self):
        p = HeatingParams(decay=2.5e5, bath_gamma=2e6, bath_k=3e5, n_init=0.02)
        assert occupation(0.0, p, 0.123) == pytest.approx(0.123, abs=1e-15)

    def test_equal_rates_limit_form(self):
        g = 2.5e5
        p_exact = HeatingParams(decay=g, bath_gamma=g, bath_k=1e5, n_init=0.01)
        p_near = HeatingParams(decay=g, bath_gamma=g * (1 + 1e-9), bath_k=1e5,
                               n_init=0.01)
        ts = np.linspace(0, 10 * US, 7)
        for t in ts:
            assert occupation(t, p_exact, 0.2) == pytest.approx(
                occupation(t, p_near, 0.2), abs=1e-6)

    def test_ode_residual_on_grid(self):
        p = HeatingParams(decay=2.5e5, bath_gamma=2e6, bath_k=4e5, n_init=0.03)
        ts = np.linspace(1e-9, 8 * US, 400)
        h = 1e-12
        n = occupation(ts, p, 0.15)
        ndot = (occupation(ts + h, p, 0.15) - occupation(ts - h, p, 0.15)) / (2 * h)
        rhs = -p.decay * n + p.bath_k * np.exp(-p.bath_gamma * ts) + p.decay * p.n_init
        scale = np.maximum(np.abs(n), p.n_init)
        assert np.max(np.abs(ndot - rhs) / np.maximum(scale, 1e-6)) < 1e-2
        # finite differences limit the check above; verify tightly via the
        # integral form at a few points
        from scipy.integrate import quad
        for t in (0.3 * US, 2 * US):
            integ = quad(lambda s: math.exp(-p.decay * (t - s)) *
                         (p.bath_k * math.exp(-p.bath_gamma * s) +
                          p.decay * p.n_init), 0, t, epsabs=1e-14)[0]
            expect = 0.15 * math.exp(-p.decay * t) + integ
            assert occupation(t, p, 0.15) == pytest.approx(expect, abs=1e-10)


class TestPumpProbeFit:
    @staticmethod
    def _synthetic(rng=None, noise_frac=0.0, decay=1 / (4.0 * US),
                   gamma=1 / (0.5 * US)):
        # dense early sampling over the rise, coarser over the tail, with
        # per-point relative uncertainties: the shape of an averaged scan
        t = np.concatenate([np.linspace(0.03 * US, 2 * US, 40),
                            np.linspace(2.3 * US, 20 * US, 40)])
        d = pump_probe_model(t, 0.9, 0.7, decay, gamma, 0.08)
        sigma = np.maximum(max(noise_frac, 0.005) * d, 1e-4)
        if rng is not None and noise_frac > 0:
            d = d + rng.normal(0, sigma)
        return t, d, sigma

    def test_noiseless_recovery(self):
        t, d, sigma = self._synthetic()
        fit = fit_pump_probe(t, d, sigma)
        assert fit.params.decay == pytest.approx(1 / (4.0 * US), rel=1e-6)
        assert fit.params.bath_gamma == pytest.approx(1 / (0.5 * US), rel=1e-6)
        assert fit.amplitude_fast == pytest.approx(0.9, rel=1e-6)
        assert fit.params.n_final == pytest.approx(0.08, rel=1e-4)

    def test_recovery_with_two_percent_noise(self):
        rng = np.random.default_rng(7)
        t, d, sigma = self._synthetic(rng, noise_frac=0.02)
        fit = fit_pump_probe(t, d, sigma)
        assert 1 / fit.params.decay == pytest.approx(4.0 * US, rel=0.05)
        assert 1 / fit.params.bath_gamma == pytest.approx(0.5 * US, rel=0.05)

    def test_recovery_across_seeds(self):
        # the slow timescale is always tight; the fast one is noise-limited
        # to several percent at this information content
        for seed in range(4):
            rng = np.random.default_rng(100 + seed)
            t, d, sigma = self._synthetic(rng, noise_frac=0.02)
            fit = fit_pump_probe(t, d, sigma)
            assert 1 / fit.params.decay == pytest.approx(4.0 * US, rel=0.05)
            assert 1 / fit.params.bath_gamma == pytest.approx(0.5 * US, rel=0.10)

    def test_slow_bath_recovery(self):
        # the bath outlives the oscillator, so the rise amplitude b is
        # negative and only the mirrored labelling heats: b (bath - decay) > 0
        t = self._synthetic()[0]
        truth = HeatingParams(decay=2 / US, bath_gamma=0.2 / US, bath_k=0.2 / US)
        d = occupation(t, truth, 0.3)
        fit = fit_pump_probe(t, d, np.maximum(0.005 * d, 1e-4))
        for name in ("decay", "bath_gamma", "bath_k"):
            assert getattr(fit.params, name) == pytest.approx(
                getattr(truth, name), rel=1e-6)
        assert fit.amplitude_rise < 0

    def test_cooling_transient_rejected(self):
        # a e^{-2t} - b e^{-0.25t} with a, b > 0: read either way round, the
        # bath coupling b (bath - decay) is negative, so the curve cools
        t = self._synthetic()[0]
        d = pump_probe_model(t, 0.9, 0.7, 2 / US, 0.25 / US, 0.08)
        with pytest.raises(FitError, match="cooling transient"):
            fit_pump_probe(t, d, np.maximum(0.005 * d, 1e-4))

    def test_reaches_the_profile_grid_minimum(self):
        # physical heating responses with two resolvable exponentials: rates
        # log-uniform over 0.1-10 /us and a factor of 2 or more apart, both
        # amplitudes 0.05 or more, 2 % noise.  The fit's chi2 is no higher
        # than the lowest chi2 of a 200 x 200 log-rate grid over its box
        t = self._synthetic()[0]
        rates = np.exp(np.linspace(math.log(1e-3), math.log(1e4), 200)) / t[-1]
        rng = np.random.default_rng(2024)
        for _ in range(40):
            while True:
                decay, bath = np.exp(rng.uniform(math.log(0.1), math.log(10), 2))
                k = math.exp(rng.uniform(math.log(0.2), math.log(5)))
                n_eq, n0 = rng.uniform(0, 0.2), rng.uniform(0, 1)
                b = k / (bath - decay)
                if (max(decay, bath) >= 2 * min(decay, bath)
                        and min(abs(b), abs(n0 - n_eq + b)) >= 0.05):
                    break
            truth = HeatingParams(decay=decay / US, bath_gamma=bath / US,
                                  bath_k=k / US, n_init=n_eq)
            d = occupation(t, truth, n0)
            sigma = np.maximum(0.02 * d, 1e-4)
            d = d + rng.normal(0, sigma)
            fit = fit_pump_probe(t, d, sigma)

            # grid chi2 with the weighted constant and the slower exponential
            # projected out by Gram-Schmidt, then the faster one's overlap
            y, cols = d / sigma, np.exp(-np.outer(rates, t)) / sigma
            const = (1 / sigma) / np.linalg.norm(1 / sigma)
            cols -= np.outer(cols @ const, const)
            y = y - (y @ const) * const
            lowest = np.inf
            for i in range(rates.size - 1):
                slow = cols[i] / np.linalg.norm(cols[i])
                fast = cols[i + 1:] - np.outer(cols[i + 1:] @ slow, slow)
                y_i = y - (y @ slow) * slow
                chi = y_i @ y_i - (fast @ y_i) ** 2 / np.einsum("ij,ij->i", fast, fast)
                lowest = min(lowest, chi.min())
            assert fit.chi2 <= lowest * (1 + 1e-9)

    def test_constant_data_rejected(self):
        t = np.linspace(0, 10 * US, 30)
        with pytest.raises(FitError, match="degenerate"):
            fit_pump_probe(t, np.full_like(t, 0.3))

    def test_non_finite_samples_rejected(self):
        # a blank CSV cell reads as nan
        t, d, sigma = self._synthetic()
        with pytest.raises(FitError, match="finite"):
            fit_pump_probe(t, np.where(t == t[5], np.nan, d), sigma)
        with pytest.raises(FitError, match="finite"):
            fit_pump_probe(t, d, np.where(t == t[5], np.nan, sigma))

    def test_too_few_samples_rejected(self):
        with pytest.raises(FitError):
            fit_pump_probe(np.arange(4.0), np.arange(4.0))


class TestCrossCorrelation:
    def test_calibrated_device_a(self):
        budget = NoiseBudget(n_th=0.119, p_pump=0.0056, n_leak=0.032,
                             n_bg=0.003, decay=1 / (4.0 * US))
        assert g2_cross(123e-9, budget) == pytest.approx(7.08, abs=0.01)

    def test_calibrated_device_b(self):
        budget = NoiseBudget(n_th=0.069, p_pump=0.0080, n_leak=0.032,
                             n_bg=0.003, decay=1 / (5.8 * US))
        assert g2_cross(123e-9, budget) == pytest.approx(9.6, rel=0.03)

    def test_noiseless_limit_is_pair_correlation(self):
        budget = NoiseBudget(n_th=0.0, p_pump=0.01, n_leak=0.0, n_bg=0.0,
                             decay=0.0)
        assert g2_cross(0.0, budget) == pytest.approx(1 + 1 / 0.01, rel=1e-12)

    def test_monotone_decreasing_in_noise_terms(self):
        base = dict(n_th=0.08, p_pump=0.006, n_leak=0.03, n_bg=0.003,
                    decay=2.5e5)
        g0 = g2_cross(123e-9, NoiseBudget(**base))
        for key in ("n_th", "n_leak", "n_bg"):
            for bump in (0.01, 0.05, 0.1):
                mod = dict(base)
                mod[key] = base[key] + bump
                assert g2_cross(123e-9, NoiseBudget(**mod)) < g0

    def test_inversion_matches_calibration(self):
        n = invert_noise_budget(7.1, 123e-9, 0.0056, 0.032, 0.003, 1 / (4.0 * US))
        assert n == pytest.approx(0.119, abs=0.003)

    def test_inversion_round_trip(self):
        budget = NoiseBudget(n_th=0.0834, p_pump=0.004, n_leak=0.02,
                             n_bg=0.002, decay=3e5)
        g = g2_cross(200e-9, budget)
        back = invert_noise_budget(g, 200e-9, 0.004, 0.02, 0.002, 3e5)
        assert back == pytest.approx(0.0834, abs=1e-10)

    def test_exact_zero_thermal_inverts_to_zero(self):
        t, decay = 123e-9, 2.5e5
        e = math.exp(-decay * t)
        g = 1 + e / (0.006 * e + 0.03 + 0.003)
        assert invert_noise_budget(g, t, 0.006, 0.03, 0.003, decay) == pytest.approx(
            0.0, abs=1e-12)

    def test_subunit_g2_rejected(self):
        with pytest.raises(NoiseModelError, match="no quantum correlation"):
            invert_noise_budget(0.9, 1e-7, 0.005, 0.03, 0.003, 2.5e5)


class TestVisibilityBound:
    def _budget(self, n_th, decay):
        return NoiseBudget(n_th=n_th, p_pump=0.006, n_leak=0.032, n_bg=0.003,
                           decay=decay)

    def test_reported_operating_point(self):
        # device contrasts 7.5 / 9.6 give a ceiling near 0.765
        c = min(7.5, 9.6) - 1
        b_a = self._budget(0.10853, 1 / (4.0 * US))
        b_b = self._budget(0.069, 1 / (5.8 * US))
        v = visibility_bound(123e-9, b_a, b_b)
        assert v == pytest.approx(c / (c + 2), abs=0.01)

    def test_vanishing_contrast(self):
        dead = NoiseBudget(n_th=0.49, p_pump=0.0, n_leak=0.49, n_bg=0.49,
                           decay=1e9)
        assert visibility_bound(1e-3, dead, dead) == pytest.approx(0.0, abs=1e-3)

    def test_noiseless_limit_approaches_one(self):
        clean = NoiseBudget(n_th=1e-9, p_pump=1e-6, n_leak=0.0, n_bg=0.0,
                            decay=0.0)
        assert visibility_bound(0.0, clean, clean) > 0.999

    def test_decay_along_fitted_dynamics(self):
        # occupation rising on the bath timescale then decaying, one budget
        # per delay at the occupation there (strong-heating operating point,
        # as in an elevated-bath-temperature sweep): the bound falls with
        # delay and drops below 0.4 by 3 us, and the 1 us peak leaves the
        # formula's range
        heat = HeatingParams(decay=1 / (4.0 * US), bath_gamma=1 / (0.5 * US),
                             bath_k=1.5e6, n_init=0.05)

        def budget(t, dev_decay):
            return NoiseBudget(n_th=occupation(t, heat, 0.09), p_pump=0.006,
                               n_leak=0.032, n_bg=0.003, decay=dev_decay)

        def bound(t):
            return visibility_bound(t, budget(t, 1 / (4.0 * US)),
                                    budget(t, 1 / (5.8 * US)))

        with pytest.raises(NoiseModelError, match="n_th=0.63"):
            bound(1.0 * US)
        vs = [bound(t) for t in (123e-9, 3.0 * US)]
        assert vs[0] > vs[1] > 0
        assert vs[1] < 0.4
