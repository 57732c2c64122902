"""Yield statistics and fiber-budget planning checks."""

import itertools
import math
import os
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import witness_oracle
from mechlink import cli, noise, planner, protocol, stats
from mechlink.config import parse_config
from mechlink.noise import NoiseBudget, NoiseModelError
from mechlink.planner import (LinkBudget, PlannerError, YieldModel, degraded_g2,
                              integration_time, max_separation, multi_chip_yield,
                              required_added_db, split_separation)

US = 1e-6

BUDGET_A = NoiseBudget(n_th=0.1089, p_pump=0.0056, n_leak=0.032, n_bg=0.0029,
                       decay=1 / (4.0 * US))
BUDGET_B = NoiseBudget(n_th=0.0690, p_pump=0.0080, n_leak=0.032, n_bg=0.0032,
                       decay=1 / (5.8 * US))


def reference_link(**kw):
    return LinkBudget(budget_a=BUDGET_A, budget_b=BUDGET_B, **kw)


class TestYieldModel:
    def test_window_conversion_at_carrier(self):
        m = YieldModel(chips=2, devices_per_chip=10, sigma_nm=(2.0, 2.0),
                       offsets_nm=(0.0, 0.0), window_mhz=100.0, carrier_nm=1550.0)
        # lambda^2 * dnu / c at 1550 nm: 100 MHz is about 0.8 pm
        assert m.window_nm == pytest.approx(8.01e-4, rel=1e-3)

    def test_rejects_bad_shapes(self):
        with pytest.raises(PlannerError):
            YieldModel(chips=2, devices_per_chip=5, sigma_nm=(2.0,),
                       offsets_nm=(0.0, 0.0))


class TestPairYield:
    def test_colocated_chips(self):
        m = YieldModel(chips=2, devices_per_chip=234, sigma_nm=(2.0, 2.0),
                       offsets_nm=(0.0, 0.0))
        est = multi_chip_yield(m, mc_reps=4000, seed=3)
        assert est.analytic == pytest.approx(0.999996, abs=1e-5)
        assert abs(est.monte_carlo - est.analytic) <= 3 * max(est.monte_carlo_se,
                                                              1e-4)

    @pytest.mark.parametrize("offset,expected", [(2.5, 0.9998), (5.0, 0.927)])
    def test_offset_chips(self, offset, expected):
        m = YieldModel(chips=2, devices_per_chip=234, sigma_nm=(2.0, 2.0),
                       offsets_nm=(0.0, offset))
        est = multi_chip_yield(m, mc_reps=4000, seed=3)
        assert est.analytic == pytest.approx(expected, abs=0.002)
        assert abs(est.monte_carlo - est.analytic) <= 3 * est.monte_carlo_se

    def test_vanishing_window(self):
        m = YieldModel(chips=2, devices_per_chip=234, sigma_nm=(2.0, 2.0),
                       offsets_nm=(0.0, 0.0), window_mhz=1e-6)
        est = multi_chip_yield(m, mc_reps=200, seed=1)
        assert est.analytic < 1e-4
        assert est.monte_carlo == 0.0

    def test_monotone_in_devices_and_window(self):
        def yield_at(n, w):
            m = YieldModel(chips=2, devices_per_chip=n, sigma_nm=(2.0, 2.0),
                           offsets_nm=(0.0, 3.0), window_mhz=w)
            return multi_chip_yield(m, mc_reps=50, seed=1).analytic

        assert yield_at(50, 100) < yield_at(150, 100) < yield_at(400, 100)
        assert yield_at(100, 30) < yield_at(100, 100) < yield_at(100, 300)

    def test_monotone_decreasing_in_offset(self):
        vals = []
        for off in (0.0, 2.0, 4.0, 6.0):
            m = YieldModel(chips=2, devices_per_chip=234, sigma_nm=(2.0, 2.0),
                           offsets_nm=(0.0, off))
            vals.append(multi_chip_yield(m, mc_reps=50, seed=1).analytic)
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestPairMatchProbability:
    """The normal CDF as 0.5 erfc(-z / sqrt 2) against `scipy.stats.norm.cdf`.

    They agree within 1e-15 absolute; about half of the values are bit
    for bit equal, and the relative gap reaches ~5e-14 only in the far tail.
    """

    @staticmethod
    def norm_cdf_reference(model):
        from scipy.stats import norm
        mu = model.offsets_nm[0] - model.offsets_nm[1]
        s = math.hypot(model.sigma_nm[0], model.sigma_nm[1])
        w = model.window_nm
        return float(norm.cdf((w - mu) / s) - norm.cdf((-w - mu) / s))

    @pytest.mark.parametrize("name", ["plan_yield_pair.cfg", "plan_yield_quad.cfg"])
    def test_shipped_configs(self, name):
        py = parse_config(os.path.join(os.path.dirname(__file__), "..",
                                       "configs", name)).plan_yield
        chips = py["chips"]

        def per_chip(values):  # one entry applies to every chip, as in the CLI
            return values * chips if len(values) == 1 else values

        model = YieldModel(chips=chips, devices_per_chip=py["devices_per_chip"],
                           sigma_nm=per_chip(py["sigma_nm_list"]),
                           offsets_nm=per_chip(py["offsets_nm_list"]),
                           window_mhz=py["window_mhz"],
                           carrier_nm=py["carrier_nm"])
        assert (planner._pair_match_probability(model)
                == pytest.approx(self.norm_cdf_reference(model), rel=0, abs=1e-15))

    def test_random_models(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            model = YieldModel(chips=2, devices_per_chip=10,
                               sigma_nm=tuple(rng.uniform(0.05, 5.0, 2)),
                               offsets_nm=tuple(rng.uniform(-20.0, 20.0, 2)),
                               window_mhz=10.0 ** rng.uniform(-3.0, 6.0))
            assert (planner._pair_match_probability(model)
                    == pytest.approx(self.norm_cdf_reference(model), rel=0,
                                     abs=1e-15))


class TestMultiChipYield:
    def test_four_chip_chained_estimate(self):
        m = YieldModel(chips=4, devices_per_chip=500, sigma_nm=(2.0,) * 4,
                       offsets_nm=(0.0,) * 4)
        est = multi_chip_yield(m, mc_reps=4000, seed=3)
        # chained pairwise-independence estimate; the mutual-window Monte
        # Carlo is stricter and lands well below it
        assert est.analytic == pytest.approx(0.516, abs=0.02)
        assert est.monte_carlo < est.analytic
        assert 0.25 < est.monte_carlo < 0.45

    def test_single_device_tiny_window(self):
        m = YieldModel(chips=3, devices_per_chip=1, sigma_nm=(2.0,) * 3,
                       offsets_nm=(0.0,) * 3, window_mhz=1e-3)
        est = multi_chip_yield(m, mc_reps=500, seed=2)
        assert est.analytic < 1e-6
        assert est.monte_carlo == 0.0

    def test_analytic_chains_every_chip(self):
        # chip 2 sits 10 sigma away from the other two: no tuple matches
        m = YieldModel(chips=3, devices_per_chip=300, sigma_nm=(1.0,) * 3,
                       offsets_nm=(0.0, 0.0, 10.0))
        est = multi_chip_yield(m, mc_reps=2000, seed=1)
        assert est.pair_probability == (planner._pair_match_probability(m, 0, 1)
                                        * planner._pair_match_probability(m, 1, 2))
        assert est.analytic < 1e-6
        assert est.monte_carlo == 0.0

    def test_analytic_ignores_chip_numbering(self):
        offsets, sigmas = (0.0, 0.0, 3.0, -1.0), (2.0, 1.5, 2.0, 1.0)
        seen = set()
        for perm in itertools.permutations(range(4)):
            m = YieldModel(chips=4, devices_per_chip=300,
                           sigma_nm=tuple(sigmas[k] for k in perm),
                           offsets_nm=tuple(offsets[k] for k in perm))
            est = multi_chip_yield(m, mc_reps=10, seed=1)
            seen.add((est.analytic, est.pair_probability))
        assert len(seen) == 1

    @pytest.mark.parametrize("chips, n", [(2, 234), (3, 300), (4, 500)])
    def test_equal_chips_keep_the_power_law(self, chips, n):
        m = YieldModel(chips=chips, devices_per_chip=n, sigma_nm=(2.0,) * chips,
                       offsets_nm=(0.0,) * chips)
        p = planner._pair_match_probability(m)
        est = multi_chip_yield(m, mc_reps=10, seed=1)
        assert est.pair_probability == pytest.approx(p ** (chips - 1),
                                                     rel=1e-12)
        assert est.analytic == pytest.approx(
            1.0 - (1.0 - p ** (chips - 1)) ** n**chips, abs=1e-12)

    @pytest.mark.parametrize("model,expected", [
        (YieldModel(chips=4, devices_per_chip=500, sigma_nm=(2.0,) * 4,
                    offsets_nm=(0.0,) * 4), 0.35025),
        (YieldModel(chips=2, devices_per_chip=234, sigma_nm=(2.0, 2.0),
                    offsets_nm=(0.0, 5.0)), 0.9235),
    ], ids=["four-chip", "two-chip"])
    def test_seed_to_result_mapping_is_pinned(self, model, expected):
        assert multi_chip_yield(model, mc_reps=4000, seed=3).monte_carlo == expected


def brute_force_matches(lam, window):
    """Every one-per-chip tuple of every repetition, checked directly."""
    return np.array([any(max(t) - min(t) < window for t in itertools.product(*rep))
                     for rep in lam])


class TestMatchedRepetitions:
    """The per-repetition verdict behind the yield Monte Carlo."""

    @pytest.mark.parametrize("chips", [2, 3, 4])
    def test_equals_brute_force(self, chips):
        rng = np.random.default_rng(chips)
        verdicts = []
        for trial in range(150):
            n = int(rng.integers(1, 7))
            if trial % 2:
                lam = rng.uniform(0.0, 3.0, size=(6, chips, n))
            else:
                # eighths are exact in binary: ties and ranges equal to
                # the window both occur
                lam = rng.integers(0, 24, size=(6, chips, n)) / 8.0
            window = rng.integers(1, 8) / 8.0
            expected = brute_force_matches(lam, window)
            np.testing.assert_array_equal(
                planner._matched_repetitions(lam, window), expected)
            verdicts.extend(expected)
        assert 0.2 < np.mean(verdicts) < 0.8

    @pytest.mark.parametrize("chips", [2, 3, 4])
    def test_range_equal_to_window_does_not_match(self, chips):
        # chip k holds k / (chips - 1) and a far decoy, so the only tuple
        # in reach spans exactly 1.0; the match rule is strict
        lam = np.array([[[k / (chips - 1), 10.0 * (k + 1)]
                         for k in range(chips)]])
        assert not planner._matched_repetitions(lam, 1.0)[0]
        assert planner._matched_repetitions(lam, np.nextafter(1.0, 2.0))[0]


class TestDegradedCorrelation:
    def test_zero_loss_is_identity(self):
        e = math.exp(-123e-9 / (5.8 * US))
        denom = 0.069 + 0.008 * e + 0.032 + 0.0032
        assert degraded_g2(BUDGET_B, 0.0, 123e-9, herald_dilution=False) == \
            pytest.approx(1 + e / denom, abs=1e-9)

    def test_strictly_decreasing_in_loss(self):
        vals = [degraded_g2(BUDGET_B, db, 123e-9) for db in (0, 3, 6, 9, 12, 20)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_background_dominated_limit(self):
        # past n_bg / T = 0.5 the correlation formula no longer applies
        with pytest.raises(NoiseModelError, match="validity range"):
            degraded_g2(BUDGET_B, 55.0, 123e-9)
        # at n_bg / T = 0.45 the scaled background is most of the noise
        # denominator and, with the heralds it dilutes, takes the contrast
        # below a sixth of its baseline
        e = math.exp(-123e-9 / (5.8 * US))
        d0 = 0.069 + 0.008 * e + 0.032
        g = degraded_g2(BUDGET_B, 10 * math.log10(0.45 / 0.0032), 123e-9)
        assert g - 1 == pytest.approx(e / ((d0 + 0.45) * 1.45), rel=1e-12)
        assert g - 1 < (degraded_g2(BUDGET_B, 0.0, 123e-9) - 1) / 6

    def test_required_loss_for_common_floor(self):
        db_a = required_added_db(BUDGET_A, 7.1, 123e-9)
        db_b = required_added_db(BUDGET_B, 7.1, 123e-9)
        assert db_a == pytest.approx(5.4, abs=1.5)
        assert db_b == pytest.approx(10.6, abs=1.5)

    def test_floor_past_the_validity_range_rejected(self):
        # a floor of 1.5 needs n_bg / T near 0.9 with dilution (1.8 without),
        # where the correlation formula no longer applies
        for dilution, decay in itertools.product((True, False), repeat=2):
            for budget in (BUDGET_A, BUDGET_B):
                with pytest.raises(PlannerError, match="validity range"):
                    required_added_db(budget, 1.5, 123e-9, dilution, decay)

    def test_closed_form_reaches_the_floor(self):
        for dilution, decay in itertools.product((True, False), repeat=2):
            for budget, floor in itertools.product((BUDGET_A, BUDGET_B),
                                                   (7.1, 3.0)):
                db = required_added_db(budget, floor, 123e-9, dilution, decay)
                assert degraded_g2(budget, db, 123e-9, dilution, decay) == \
                    pytest.approx(floor, rel=1e-13)

    def test_round_trip_loss(self):
        db = required_added_db(BUDGET_B, 8.0, 123e-9)
        g = degraded_g2(BUDGET_B, db, 123e-9)
        back = required_added_db(BUDGET_B, g, 123e-9)
        assert back == pytest.approx(db, abs=0.01)


class TestFormulaAgainstExactModel:
    # formula over exact at 0, 6, 10 and 15 dB on entangle_stats.cfg was
    # +3.1, +6.3, +12.7, +30.7 % (device A) and +1.6, +3.4, +7.7, +20.2 %
    # (device B); each bound is that gap plus about a tenth
    LOSSES_DB = (0.0, 6.0, 10.0, 15.0)
    GAP_BOUNDS = {"A": (0.035, 0.07, 0.14, 0.34), "B": (0.018, 0.038, 0.085, 0.22)}

    def test_formula_overstates_the_exact_correlation_more_with_loss(
            self, monkeypatch):
        # each device's budget as `cli._formula_bound` builds it; the loss
        # goes into `eta_path` of the exact model
        run = parse_config(os.path.join(os.path.dirname(__file__), "..", "configs",
                                        "entangle_stats.cfg"))
        proto = run.protocol
        budgets = []
        monkeypatch.setattr(noise, "visibility_bound",
                            lambda t, a, b: budgets.extend((a, b)) or 0.0)
        cli._formula_bound(run, proto.tau)
        for budget, device in zip(budgets, "AB"):
            key = f"device_{device.lower()}"
            params = getattr(proto, key)
            gaps = []
            for db in self.LOSSES_DB:
                lossy = replace(proto, **{key: replace(
                    params, eta_path=params.eta_path * 10.0 ** (-db / 10.0))})
                exact = protocol.single_device_g2_exact(lossy, device)
                gaps.append(degraded_g2(budget, db, proto.tau) / exact - 1.0)
            assert all(gap > 0.0 for gap in gaps), (device, gaps)
            assert all(a < b for a, b in zip(gaps, gaps[1:])), (device, gaps)
            assert all(gap < bound for gap, bound in
                       zip(gaps, self.GAP_BOUNDS[device])), (device, gaps)


class TestSeparationPlanning:
    def test_maximum_insertable_fiber(self):
        sep = max_separation(reference_link(), contrast_retention=0.95)
        assert sep.total_km == pytest.approx(94.0, abs=15.0)

    def test_full_retention_means_zero_fiber(self):
        # symmetric devices: full retention leaves no loss budget anywhere
        link = LinkBudget(budget_a=BUDGET_A, budget_b=BUDGET_A)
        sep = max_separation(link, contrast_retention=1.0)
        assert sep.total_km == 0.0

    def test_full_retention_asymmetric_credits_better_arm(self):
        # the limiting device already sets the contrast; the better arm can
        # absorb its pre-existing margin without moving the floor
        sep = max_separation(reference_link(), contrast_retention=1.0)
        assert sep.arm_a_km == 0.0
        assert sep.arm_b_km > 0.0

    def test_seventy_five_km_split(self):
        split = split_separation(reference_link(), 75.0)
        assert split.arm_a_km == pytest.approx(32.0, abs=8.0)
        assert split.arm_b_km == pytest.approx(43.0, abs=8.0)
        assert split.arm_a_km + split.arm_b_km == pytest.approx(75.0, abs=0.01)

    def test_unreachable_separation_rejected(self):
        with pytest.raises(PlannerError, match="exceeds"):
            split_separation(reference_link(), 500.0)


class TestWitnessStepConvergence:
    """Halving the shipped witness bin step 0.005 moves each reported
    quantity by less than the error measured at that step against steps
    halved three more times: 1.3e-5 (84th percentile), 2e-6 (median),
    6.4e-6 (confidence under 1) and 1.5e-4 (plan-fiber clearance),
    relative.  An error falling as the step squared moves by 3/4 of
    itself at one halving."""

    @staticmethod
    def _quantities(t, step, mirrored=False):
        # a mirror-symmetric tally's heralds have equal posteriors
        d1 = stats.witness_distribution(t, 1, witness_step=step)
        d2 = d1 if mirrored else stats.witness_distribution(t, 2, witness_step=step)
        sym = stats.symmetrize(d1, d2)
        median = sym.median
        return np.array([sym.upper, median, stats.confidence_below(sym, 1.0),
                         (1.0 - median) / (sym.upper - median)])

    def test_published_tally(self):
        with open(os.path.join(os.path.dirname(__file__), "..", "configs",
                               "witness_run_tally.json")) as fh:
            t = stats.CoincidenceTally.loads(fh.read())
        coarse, fine = (self._quantities(t, step) for step in (0.005, 0.0025))
        moved = np.abs(fine - coarse) / np.abs(fine)
        assert np.all(moved[:3] <= [1.3e-5, 2e-6, 6.4e-6])

    def test_seventy_five_km_tally(self):
        link = reference_link()
        plan = split_separation(link, 75.0)
        rate_scale = 10.0 ** (-max(plan.arm_a_db, plan.arm_b_db) / 10.0)
        # the trial count the 75 km plan clears 3 sigma at
        t = planner._projected_tally(link, plan.g2_floor, rate_scale, 5.334e10)
        q = [self._quantities(t, step, mirrored=True)
             for step in (0.005, 0.0025, 0.00125)]
        moved = np.abs(q[1] - q[0]) / np.abs(q[1])
        assert moved[3] <= 1.5e-4
        assert moved[2] <= 6.4e-6
        # the confidence and the clearance converge as the step squared:
        # each halving moves them about a quarter as far as the last one
        ratio = (q[1] - q[0])[2:] / (q[2] - q[1])[2:]
        assert np.all((3.0 < ratio) & (ratio < 7.0))


class TestIntegrationTime:
    def test_at_maximum_separation(self):
        plan = integration_time(reference_link(), 94.0)
        assert plan.days == pytest.approx(170.0, abs=50.0)

    def test_at_seventy_five_km(self):
        plan = integration_time(reference_link(), 75.0)
        assert plan.days == pytest.approx(38.0, abs=12.0)

    def test_zero_added_fiber_is_about_a_day(self):
        # the performed run: ~2e9 trials at 50 us repetition is ~1.2 days
        plan = integration_time(reference_link(), 0.0)
        assert 0.3 < plan.days < 5.0

    def test_transmission_squared_scaling(self):
        # coincidence-limited: time scales as the inverse square of the
        # worst-arm transmission
        link = reference_link()
        p1 = integration_time(link, 40.0)
        p2 = integration_time(link, 70.0)
        db1 = max(split_separation(link, 40.0).arm_a_db,
                  split_separation(link, 40.0).arm_b_db)
        db2 = max(split_separation(link, 70.0).arm_a_db,
                  split_separation(link, 70.0).arm_b_db)
        expected = 10 ** (2 * (db2 - db1) / 10)
        assert p2.days / p1.days == pytest.approx(expected, rel=0.25)

    def test_each_probe_is_solved_once(self, monkeypatch):
        seen = []
        solve = stats.witness_distribution

        def counted(t, det):
            seen.append((t, det))
            return solve(t, det)

        monkeypatch.setattr(stats, "witness_distribution", counted)
        for km in (0.0, 75.0, 94.0):
            seen.clear()
            plan = integration_time(reference_link(), km)
            # a start, one secant step and the Illinois closing; the
            # heralds' posteriors are equal, so each probe solves one
            assert len(seen) <= 8
            assert len(set(seen)) == len(seen)
            # the off-grid mass is that of the full-grid posteriors
            t = next(t for t, _ in seen if t.n_trials == plan.trials)
            d = witness_oracle.full_grid_distribution(t, 1)
            sym = stats.symmetrize(d, d)
            assert plan.witness_offgrid == sym.below + sym.above

    @pytest.mark.parametrize("n_trials", [4.105e9, 1.2e10, 6.4e10, 2.8e11])
    def test_projected_heralds_have_equal_posteriors(self, n_trials):
        link = reference_link()
        plan = split_separation(link, 94.0)
        rate_scale = 10.0 ** (-max(plan.arm_a_db, plan.arm_b_db) / 10.0)
        t = planner._projected_tally(link, plan.g2_floor, rate_scale, n_trials)
        d1, d2 = (stats.witness_distribution(t, det) for det in (1, 2))
        assert np.array_equal(d1.mass, d2.mass)
        assert ((d1.ml_value, d1.lower, d1.upper, d1.below, d1.above)
                == (d2.ml_value, d2.lower, d2.upper, d2.below, d2.above))

    @pytest.mark.parametrize("median, upper", [(0.9, 1.5), (0.0, 0.01)])
    def test_unmoved_bracket_end_raises(self, median, upper, monkeypatch):
        # a clearance that ignores the trial count never crosses the target,
        # from below (0.17 sigma) or from above (100 sigma)
        fixed = SimpleNamespace(median=median, upper=upper, below=0.0, above=0.0)
        probes = []
        monkeypatch.setattr(stats, "witness_distribution", lambda t, det: None)
        monkeypatch.setattr(stats, "symmetrize",
                            lambda d1, d2: probes.append(d1) or fixed)
        with pytest.raises(PlannerError, match="outside the searched"):
            integration_time(reference_link(), 75.0)
        # the start, the secant step and one doubled step, which reaches
        # MAX_LOG_REACH from the start
        assert len(probes) == 3

    @staticmethod
    def _clearances(km, n_trials):
        link = reference_link()
        plan = split_separation(link, km)
        rate_scale = 10.0 ** (-max(plan.arm_a_db, plan.arm_b_db) / 10.0)
        return [planner._clearance(link, plan.g2_floor, rate_scale, n)[0]
                for n in n_trials]

    def test_clearance_rises_through_closely_spaced_trial_counts(self):
        # 1 % apart at 75 km, where a clearance on rounded counts and the
        # binned mode went backwards (43.748, then 43.726)
        c = self._clearances(75.0, np.linspace(1.0e13, 1.05e13, 6))
        assert np.all(np.diff(c) > 0)

    @pytest.mark.parametrize("km", [0.0, 75.0, 94.0])
    def test_clearance_rises_across_the_solved_range(self, km):
        link = reference_link()
        plan = split_separation(link, km)
        rate_scale = 10.0 ** (-max(plan.arm_a_db, plan.arm_b_db) / 10.0)
        start = (4.0 * planner.START_COINCIDENCES
                 / (link.herald_prob * link.read_prob * rate_scale**2))
        # the solve probes from its start down to about a fifth of it, where
        # rounded counts made the clearance jump back and forth by 0.1-0.2
        c = self._clearances(km, start * np.geomspace(0.2, 1.0, 33))
        assert np.all(np.diff(c) > 0)
        # and beyond: from one expected same-detector coincidence, where
        # the witness median crosses 1, to ten times the start
        c = self._clearances(km, start * np.geomspace(0.01, 10.0, 7))
        assert c[0] < 0.0 < 3.0 < c[-1]
        assert np.all(np.diff(c) > 0)
