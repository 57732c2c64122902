"""Counting statistics: tallies, correlation estimates, witness pipeline."""

import json
import math

import numpy as np
import pytest

from mechlink import stats
from mechlink.campaign import WINDOW_PUMP, WINDOW_READ, ClickLog
from mechlink.stats import (CoincidenceTally, StatsError, confidence_below,
                            fit_fringe, g2_from_counts, symmetrize,
                            systematic_correction, tally, visibility,
                            witness_distribution, witness_from_g2)

# the two published counting blocks used throughout
WITNESS_TALLY = CoincidenceTally(
    n_trials=1_114_000_000,
    pump_singles=(111134, 184114),
    read_singles=(108723, 167427),
    coincidences=((9, 129), (130, 37)),
)
EXTENDED_TALLY = CoincidenceTally(
    n_trials=1_949_000_000,
    pump_singles=(196080, 322608),
    read_singles=(194023, 300373),
    coincidences=((16, 242), (223, 67)),
)


def make_log(rows, n_trials=10):
    rows = sorted(rows)
    return ClickLog(n_trials=n_trials, seed=0, stream=0,
                    trial=np.array([r[0] for r in rows]),
                    detector=np.array([r[2] for r in rows]),
                    window=np.array([r[1] for r in rows]))


class TestTally:
    def test_empty_log(self):
        log = make_log([])
        t = tally(log)
        assert t.pump_singles == (0, 0) and t.read_singles == (0, 0)
        assert t.coincidences == ((0, 0), (0, 0))

    def test_hand_built_log(self):
        # trial 0: pump d1 + read d2; trial 1: pump d2 only; trial 2: both
        # windows both detectors
        rows = [
            (0, WINDOW_PUMP, 1), (0, WINDOW_READ, 2),
            (1, WINDOW_PUMP, 2),
            (2, WINDOW_PUMP, 1), (2, WINDOW_PUMP, 2),
            (2, WINDOW_READ, 1), (2, WINDOW_READ, 2),
        ]
        t = tally(make_log(rows))
        assert t.pump_singles == (2, 2)
        assert t.read_singles == (1, 2)
        assert t.coincidence(1, 1) == 1       # trial 2
        assert t.coincidence(2, 1) == 2       # trials 0 and 2
        assert t.coincidence(1, 2) == 1       # trial 2
        assert t.coincidence(2, 2) == 1       # trial 2

    def test_overlapping_windows_rejected(self):
        with pytest.raises(StatsError, match="overlap"):
            tally(make_log([]), pump_window=WINDOW_PUMP, read_window=WINDOW_PUMP)

    def test_json_round_trip(self):
        doc = WITNESS_TALLY.dumps()
        back = CoincidenceTally.loads(doc)
        assert back == WITNESS_TALLY
        assert json.loads(doc)["Cr2p1"] == 130

    def test_coincidence_cannot_exceed_singles(self):
        with pytest.raises(StatsError, match="exceeds"):
            CoincidenceTally(n_trials=100, pump_singles=(5, 5),
                             read_singles=(5, 5), coincidences=((6, 0), (0, 0)))


class TestG2FromCounts:
    def test_point_estimates_from_published_block(self):
        assert g2_from_counts(WITNESS_TALLY, 2, 1).value == pytest.approx(7.783, abs=0.01)
        assert g2_from_counts(WITNESS_TALLY, 1, 1).value == pytest.approx(0.830, abs=0.01)

    def test_interval_scales_with_counts(self):
        small = g2_from_counts(WITNESS_TALLY, 1, 1)
        big = g2_from_counts(WITNESS_TALLY, 2, 1)
        assert (small.upper - small.lower) / small.value > \
               (big.upper - big.lower) / big.value

    def test_uncorrelated_poisson_clicks_give_unity(self):
        rng = np.random.default_rng(4)
        n = 2_000_000
        p_pump, p_read = 3e-3, 2e-3
        pump = rng.random((n, 2)) < p_pump
        read = rng.random((n, 2)) < p_read
        coinc = tuple(tuple(int(np.sum(read[:, i] & pump[:, j]))
                            for j in (0, 1)) for i in (0, 1))
        t = CoincidenceTally(
            n_trials=n,
            pump_singles=tuple(int(x) for x in pump.sum(axis=0)),
            read_singles=tuple(int(x) for x in read.sum(axis=0)),
            coincidences=coinc)
        for i in (1, 2):
            for j in (1, 2):
                est = g2_from_counts(t, i, j)
                assert est.lower - 0.2 < 1.0 < est.upper + 0.2

    def test_scale_invariance_under_uniform_efficiency(self):
        base = g2_from_counts(WITNESS_TALLY, 2, 1).value
        half = CoincidenceTally(
            n_trials=WITNESS_TALLY.n_trials,
            pump_singles=tuple(c // 2 for c in WITNESS_TALLY.pump_singles),
            read_singles=tuple(c // 2 for c in WITNESS_TALLY.read_singles),
            coincidences=tuple(tuple(c // 4 for c in row)
                               for row in WITNESS_TALLY.coincidences))
        # halving all detection efficiencies: singles x1/2, coincidences x1/4
        scaled = g2_from_counts(half, 2, 1).value
        assert scaled == pytest.approx(base, rel=0.04)

    def test_one_pair_pool_equals_single_pair(self):
        for i in (1, 2):
            for j in (1, 2):
                assert g2_from_counts(WITNESS_TALLY, (i,), (j,)) == \
                       g2_from_counts(WITNESS_TALLY, i, j)

    def test_pooled_pairs_share_one_normalization(self):
        t = WITNESS_TALLY
        est = g2_from_counts(t, (1, 2), (2, 1))
        c = t.coincidence(1, 2) + t.coincidence(2, 1)
        denom = (t.read_singles[0] * t.pump_singles[1]
                 + t.read_singles[1] * t.pump_singles[0])
        assert est.value == pytest.approx(t.n_trials * c / denom, rel=1e-12)
        assert est.coincidences == c
        assert est.heralds == sum(t.pump_singles)


class TestWitnessFormula:
    def test_hand_value(self):
        assert witness_from_g2(0.0, 4.0) == pytest.approx(0.75)

    def test_published_point_values(self):
        g11 = g2_from_counts(WITNESS_TALLY, 1, 1).value
        g21 = g2_from_counts(WITNESS_TALLY, 2, 1).value
        assert witness_from_g2(g11, g21) == pytest.approx(0.630, abs=0.002)

    def test_no_contrast_is_unbounded(self):
        with pytest.raises(StatsError, match="unbounded"):
            witness_from_g2(1.0, 1.0)

    def test_symmetric_in_arguments(self):
        assert witness_from_g2(0.8, 7.7) == witness_from_g2(7.7, 0.8)


class TestWitnessDistribution:
    def test_published_maximum_likelihood_values(self):
        d1 = witness_distribution(WITNESS_TALLY, 1)
        d2 = witness_distribution(WITNESS_TALLY, 2)
        assert 0.58 <= d1.ml_value <= 0.66
        assert 0.80 <= d2.ml_value <= 0.88
        # equal-tailed 68% interval, matching the published convention
        assert d1.upper - d1.ml_value == pytest.approx(0.152, abs=0.03)
        assert d1.ml_value - d1.lower == pytest.approx(0.057, abs=0.03)

    def test_symmetrized_value_and_confidence(self):
        d1 = witness_distribution(WITNESS_TALLY, 1)
        d2 = witness_distribution(WITNESS_TALLY, 2)
        sym = symmetrize(d1, d2)
        assert 0.71 <= sym.ml_value <= 0.77
        e1 = witness_distribution(EXTENDED_TALLY, 1)
        e2 = witness_distribution(EXTENDED_TALLY, 2)
        esym = symmetrize(e1, e2)
        assert 0.71 <= esym.ml_value <= 0.77
        conf = confidence_below(esym, 1.0)
        assert 0.995 <= conf <= 0.9995

    def test_symmetrizing_narrows_the_interval(self):
        d1 = witness_distribution(WITNESS_TALLY, 1)
        sym = symmetrize(d1, d1)
        assert (sym.upper - sym.lower) < (d1.upper - d1.lower)

    def test_identical_deltas_stay_put(self):
        grid = np.arange(200) * 0.01
        mass = np.zeros(200)
        mass[57] = 1.0
        d = stats.WitnessDistribution(grid=grid, mass=mass,
                                      ml_value=float(grid[57]),
                                      lower=float(grid[57]), upper=float(grid[57]))
        sym = symmetrize(d, d)
        assert sym.ml_value == pytest.approx(grid[57], abs=1e-9)

    def test_large_count_limit_converges_to_point_value(self):
        n_trials = 10**12
        cp = cr = 2 * 10**8
        g_targets = {(1, 1): 0.83, (2, 1): 7.78, (1, 2): 7.18, (2, 2): 1.34}
        coinc = {k: int(round(g * cr * cp / n_trials)) for k, g in g_targets.items()}
        t = CoincidenceTally(
            n_trials=n_trials, pump_singles=(cp, cp), read_singles=(cr, cr),
            coincidences=((coinc[(1, 1)], coinc[(1, 2)]),
                          (coinc[(2, 1)], coinc[(2, 2)])))
        assert all(c > 1e4 for c in (coinc[(1, 1)], coinc[(2, 1)]))
        d = witness_distribution(t, 1)
        point = witness_from_g2(coinc[(1, 1)] * n_trials / (cr * cp),
                                coinc[(2, 1)] * n_trials / (cr * cp))
        assert abs(d.ml_value - point) / point < 0.01
        assert not d.grid_warning

    def test_confidence_grows_with_statistics(self):
        confs = []
        for scale in (1, 10, 100):
            t = CoincidenceTally(
                n_trials=WITNESS_TALLY.n_trials * scale,
                pump_singles=tuple(scale * c for c in WITNESS_TALLY.pump_singles),
                read_singles=tuple(scale * c for c in WITNESS_TALLY.read_singles),
                coincidences=tuple(tuple(scale * c for c in row)
                                   for row in WITNESS_TALLY.coincidences))
            sym = symmetrize(witness_distribution(t, 1), witness_distribution(t, 2))
            confs.append(confidence_below(sym, 1.0))
        assert confs[0] < confs[1] < confs[2]

    def test_delta_below_threshold_is_certain(self):
        grid = np.arange(100) * 0.01 + 0.005
        mass = np.zeros(100)
        mass[50] = 1.0
        d = stats.WitnessDistribution(grid=grid, mass=mass, ml_value=0.505,
                                      lower=0.505, upper=0.505)
        assert confidence_below(d, 1.0) == pytest.approx(1.0)


class TestSystematicCorrection:
    def test_zero_imbalance_changes_nothing(self):
        c = systematic_correction(0.74, 0.0, splitter_deviation=0.0,
                                  herald_imbalance=0.0)
        assert c.corrected_witness == 0.74
        assert c.corrected_threshold == 1.0

    def test_ten_percent_imbalance_gives_half_percent(self):
        c = systematic_correction(0.74, 0.1)
        assert c.components["readout_flux"] == pytest.approx(0.005)
        assert c.corrected_witness == pytest.approx(0.74 * 1.005)

    def test_small_splitter_deviation_component(self):
        c = systematic_correction(0.74, 0.006, splitter_deviation=0.006)
        assert c.components["combiner_splitting"] == pytest.approx(1.8e-5)


class TestFringeTools:
    def test_visibility_from_extrema(self):
        assert visibility([7.783, 0.830]) == pytest.approx(0.807, abs=0.001)

    def test_flat_fringe_has_zero_visibility(self):
        assert visibility([3.0, 3.0, 3.0]) == 0.0

    def test_fitted_mode_recovers_known_visibility(self):
        rng = np.random.default_rng(8)
        x = np.linspace(0, 4 * math.pi, 40)
        y = 4.0 * (1 + 0.8 * np.cos(x - 0.3)) + rng.normal(0, 0.05, x.size)
        assert visibility(y, mode="fit") == pytest.approx(0.80, abs=0.01)

    def test_phase_fringe_period_recovery(self):
        rng = np.random.default_rng(3)
        x = np.linspace(0, 3.5 * math.pi, 24)
        y = 3.0 + 2.0 * np.cos(x - 0.7) + rng.normal(0, 0.02, x.size)
        fit = fit_fringe(x, y)
        assert fit.period / math.pi == pytest.approx(2.0, abs=0.02)

    def test_delay_fringe_period_recovery(self):
        # frequency difference of 45 MHz: one cycle every 22.2 ns
        period = 1 / 45e6
        x = np.linspace(0, 2.5 * period, 25)
        rng = np.random.default_rng(5)
        y = 4.0 + 3.0 * np.cos(2 * math.pi * x / period) + rng.normal(0, 0.05, x.size)
        fit = fit_fringe(x, y)
        assert fit.period == pytest.approx(22.2e-9, abs=0.3e-9)

    def test_constant_data_flagged(self):
        fit = fit_fringe(np.arange(10.0), np.full(10, 2.5))
        assert fit.flagged
        assert fit.amplitude == 0.0
