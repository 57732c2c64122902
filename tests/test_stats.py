"""Counting statistics: tallies, correlation estimates, witness pipeline."""

import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import witness_oracle
from mechlink import cli, stats
from mechlink.campaign import ClickLog
from mechlink.stats import (CoincidenceTally, StatsError, confidence_below,
                            fit_fringe, g2_from_counts, symmetrize, tally,
                            visibility, witness_distribution, witness_from_g2)

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
# the widest tally of `mechlink plan-fiber configs/plan_fiber.cfg`: the
# first integration-time probe at 94 km, one same-detector coincidence
WIDE_TALLY = CoincidenceTally(
    n_trials=11_851_383_304,
    pump_singles=(135000, 135000),
    read_singles=(123999, 123999),
    coincidences=((1, 10), (10, 1)),
)


def config_tally(name) -> CoincidenceTally:
    with open(os.path.join(os.path.dirname(__file__), "..", "configs", name)) as fh:
        return CoincidenceTally.loads(fh.read())


PUMP, READ = 0, 1


def make_log(rows, n_trials=10):
    """A log of (trial, window, detector) rows: each row sets bit
    2 * window + detector - 1 of its trial's code."""
    codes = {}
    for trial, window, detector in rows:
        codes[trial] = codes.get(trial, 0) | 1 << (2 * window + detector - 1)
    trials = sorted(codes)
    return ClickLog(n_trials=n_trials, seed=0, stream=0,
                    trial=trials, code=[codes[t] for t in trials])


def row_tally(log) -> CoincidenceTally:
    """The row-level tally: the log expanded into (trial, detector, window)
    rows, singles counted by mask and coincidences by intersecting the
    trials of a read and a pump detector."""
    rows = np.array([(t, bit % 2 + 1, bit // 2)
                     for t, code in zip(log.trial.tolist(), log.code.tolist())
                     for bit in range(4) if code >> bit & 1], dtype=np.int64)
    trial, detector, window = rows.reshape(-1, 3).T
    clicked = {(w, d): trial[(window == w) & (detector == d)]
               for w in (PUMP, READ) for d in (1, 2)}
    return CoincidenceTally(
        n_trials=log.n_trials,
        pump_singles=tuple(len(clicked[PUMP, d]) for d in (1, 2)),
        read_singles=tuple(len(clicked[READ, d]) for d in (1, 2)),
        coincidences=tuple(
            tuple(len(np.intersect1d(clicked[READ, i], clicked[PUMP, j],
                                     assume_unique=True)) for j in (1, 2))
            for i in (1, 2)))


@st.composite
def click_logs(draw):
    """Valid logs: sorted unique trials below n_trials, codes in 1..15."""
    n_trials = draw(st.integers(1, 10**12))
    trials = draw(st.lists(st.integers(0, n_trials - 1), unique=True, max_size=40))
    codes = draw(st.lists(st.integers(1, 15), min_size=len(trials),
                          max_size=len(trials)))
    return ClickLog(n_trials=n_trials, seed=draw(st.integers(0, 2**32 - 1)),
                    stream=0, trial=sorted(trials), code=codes)


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
            (0, PUMP, 1), (0, READ, 2),
            (1, PUMP, 2),
            (2, PUMP, 1), (2, PUMP, 2),
            (2, READ, 1), (2, READ, 2),
        ]
        log = make_log(rows)
        assert list(log.code) == [0b1001, 0b0010, 0b1111] and len(log) == 7
        t = tally(log)
        assert t.pump_singles == (2, 2)
        assert t.read_singles == (1, 2)
        assert t.coincidence(1, 1) == 1       # trial 2
        assert t.coincidence(2, 1) == 2       # trials 0 and 2
        assert t.coincidence(1, 2) == 1       # trial 2
        assert t.coincidence(2, 2) == 1       # trial 2

    @given(log=click_logs())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_csv_round_trip_and_row_tally(self, log, tmp_path_factory):
        directory = tmp_path_factory.mktemp("log")
        log.save(directory / "log.csv", directory / "log.json")
        back = ClickLog.from_csv(directory / "log.csv", directory / "log.json")
        assert np.array_equal(back.trial, log.trial)
        assert np.array_equal(back.code, log.code)
        assert (back.n_trials, back.seed, len(back)) == (log.n_trials, log.seed, len(log))
        assert tally(log) == row_tally(log)

    def test_json_round_trip(self):
        doc = WITNESS_TALLY.dumps()
        back = CoincidenceTally.loads(doc)
        assert back == WITNESS_TALLY
        assert json.loads(doc)["Cr2p1"] == 130

    def test_coincidence_cannot_exceed_singles(self):
        with pytest.raises(StatsError, match="exceeds"):
            CoincidenceTally(n_trials=100, pump_singles=(5, 5),
                             read_singles=(5, 5), coincidences=((6, 0), (0, 0)))

    def test_real_counts_keep_the_validation(self):
        singles = dict(n_trials=100.0, pump_singles=(5.25, 5.25),
                       read_singles=(5.25, 5.25))
        with pytest.raises(StatsError, match="non-negative"):
            CoincidenceTally(**singles, coincidences=((0.5, -0.25), (0.5, 0.5)))
        with pytest.raises(StatsError, match="non-negative"):
            CoincidenceTally(n_trials=100.0, pump_singles=(5.25, -0.5),
                             read_singles=(5.25, 5.25),
                             coincidences=((0.0, 0.0), (0.0, 0.0)))
        with pytest.raises(StatsError, match="exceeds"):
            CoincidenceTally(**singles, coincidences=((5.5, 0.0), (0.0, 0.0)))


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


class TestBetaKernel:
    """`beta_cdf` and `beta_quantile` against scipy.special.

    Over a from 1 to 26854 and b from 1 to 4.54e6, at x within 40
    posterior standard deviations of the mean and at both clipped ends.
    Where scipy.special itself is off (about 8e-11 near the mean of
    Beta(24, 4.54e6)), the kernel is held to a 40-digit quadrature of the
    beta density instead, and scipy is shown to miss it.
    """

    A = (1, 1.5, 24, 203.3, 716.5, 3534, 26854)
    B = (1, 2, 60, 6e4, 7e5, 4.54e6)

    @staticmethod
    def reference(a, b, x) -> float:
        import mpmath as mp
        with mp.workdps(40):
            a, b, x = mp.mpf(a), mp.mpf(b), mp.mpf(float(x))
            log_beta = mp.loggamma(a) + mp.loggamma(b) - mp.loggamma(a + b)
            mode = (a - 1) / (a + b - 2) if a > 1 and b > 1 else x / 2
            cuts = sorted({mp.mpf(0), min(x, mode), x})
            return float(mp.quad(lambda t: mp.exp(
                (a - 1) * mp.log(t) + (b - 1) * mp.log1p(-t) - log_beta), cuts))

    @staticmethod
    def grid(a, b):
        mean = a / (a + b)
        sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
        x = np.clip(mean + sd * np.linspace(-40.0, 40.0, 161), 0.0, 1.0)
        return np.r_[0.0, x, 1.0]

    @pytest.mark.parametrize("b", B)
    @pytest.mark.parametrize("a", A)
    def test_cdf_against_scipy(self, a, b):
        from scipy.special import betainc
        x = self.grid(a, b)
        got, ref = stats.beta_cdf(a, b, x), betainc(a, b, x)
        err = np.abs(got - ref)
        tail = (ref >= 1e-300) & (ref <= 0.5)
        bad = (err > 5e-14) | (tail & (err > 1e-11 * ref))
        for k in np.flatnonzero(bad):
            exact = self.reference(a, b, x[k])
            assert abs(got[k] - exact) <= 5e-14
            assert abs(ref[k] - exact) > 5e-14
        ok = ~bad
        assert np.array_equal(got[ok] == 0.0, ref[ok] == 0.0)
        assert np.array_equal(got[ok] == 1.0, ref[ok] == 1.0)
        assert (got[[0, -1]] == (0.0, 1.0)).all()

    @pytest.mark.parametrize("b", B)
    @pytest.mark.parametrize("a", A)
    def test_quantile_against_scipy(self, a, b):
        from scipy.special import betaincinv
        levels = 0.5 * (stats._legendre(stats.WITNESS_NODES)[0] + 1.0)
        p = np.r_[levels, 0.16, 0.5, 0.84]
        got, ref = stats.beta_quantile(a, b, p), betaincinv(a, b, p)
        bad = np.abs(got - ref) > 1e-13 * ref
        for k in np.flatnonzero(bad):
            # the x error implied by the reference CDF at the kernel's answer
            density = math.exp((a - 1) * math.log(got[k])
                               + (b - 1) * math.log1p(-got[k])
                               - math.lgamma(a) - math.lgamma(b)
                               + math.lgamma(a + b))
            miss = abs(self.reference(a, b, got[k]) - p[k]) / density
            assert miss <= 1e-13 * got[k]
        assert bad.mean() < 0.5

    def test_workload_posteriors_against_scipy(self):
        # the two g2 posteriors of the published tally's heralds at p_1 and
        # a plan-fiber posterior, on every edge the witness CDF reads
        from scipy.special import betainc
        for tally_, det in ((WITNESS_TALLY, 1), (WITNESS_TALLY, 2),
                            (WIDE_TALLY, 1)):
            a, _, (c, n, scale) = stats._witness_nodes(tally_, det)
            edges = stats.WITNESS_MIN + stats.WITNESS_GRID_STEP * np.arange(4401)
            s = 2.0 * a - 1.0
            root = np.sqrt(np.clip(1.0 + edges[:, None] * s, 0.0, None))
            x = np.clip((a - 2.0 * s / (1.0 + root)) / scale, 0.0, 1.0)
            got, ref = stats.beta_cdf(c + 1, n - c + 1, x), betainc(c + 1, n - c + 1, x)
            assert np.abs(got - ref).max() <= 5e-14
            tail = (ref >= 1e-300) & (ref <= 0.5)
            assert (np.abs(got - ref)[tail] <= 1e-11 * ref[tail]).all()
            assert np.array_equal(got == 0.0, ref == 0.0)
            assert np.array_equal(got == 1.0, ref == 1.0)

    def test_batched_intervals_equal_single_ones(self):
        # a batch over posteriors gathers each element's terms; alone, a
        # posterior sums with scalar terms; the numbers are the same
        requests = [(t, i, j) for t in (WITNESS_TALLY, EXTENDED_TALLY, WIDE_TALLY)
                    for i, j in ((1, 1), (1, 2), (2, 1), (2, 2),
                                 ((1, 2), (1, 2)), ((1, 2), (2, 1)))]
        batch = stats.g2_estimates(requests)
        for req, est in zip(requests, batch):
            assert est == g2_from_counts(*req)

    @pytest.mark.parametrize("a", (1.01, 1.05, 1.2))
    def test_deep_fractions_against_scipy(self, a):
        # near lambda = 0 these fractions run about 70 terms, so the
        # depth probe's tables double from their first 32 + 2 sigma = 34
        from scipy.special import betainc
        for b in (1e4, 1e8):
            lam = np.r_[-np.logspace(-12, 1.5, 60), 0.0, np.logspace(-12, 1.5, 60)]
            x = np.clip((a - lam) / (a + b), 0.0, 1.0)
            got, ref = stats.beta_cdf(a, b, x), betainc(a, b, x)
            assert np.abs(got - ref).max() <= 5e-14
            tail = ref <= 0.5
            assert (np.abs(got - ref)[tail] <= 1e-11 * ref[tail]).all()

    def test_quantile_rejects_levels_outside_zero_one(self):
        with pytest.raises(StatsError):
            stats.beta_quantile(3.0, 5.0, [0.0, 0.5])


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
        assert d.below + d.above < 1e-12

    @pytest.mark.parametrize("tally_, det", [(WITNESS_TALLY, 1), (WITNESS_TALLY, 2),
                                             (WIDE_TALLY, 1), (WIDE_TALLY, 2)])
    def test_masses_match_monte_carlo(self, tally_, det):
        d = witness_distribution(tally_, det, witness_step=0.05)
        rng = np.random.default_rng(2017)
        n = 10**6
        a, b = (rng.beta(tally_.coincidence(i, det) + 1,
                         tally_.pump_singles[det - 1] - tally_.coincidence(i, det) + 1,
                         n) * tally_.n_trials / tally_.read_singles[i - 1]
                for i in (1, 2))
        w = 4.0 * (a + b - 1.0) / (a - b) ** 2
        edges = stats.WITNESS_MIN + 0.05 * np.arange(len(d.mass) + 1)
        # slot 0 is under the grid, slot len(edges) over it
        slots = np.searchsorted(edges, w, side="right")
        observed = np.bincount(slots, minlength=len(edges) + 1) / n
        expected = np.concatenate(([d.below], d.mass, [d.above]))
        # binomial sigma, floored at one draw for near-empty slots
        sigma = np.sqrt(np.maximum(expected * (1 - expected), 1.0 / n) / n)
        assert np.all(np.abs(observed - expected) <= 5 * sigma)

    @pytest.mark.parametrize("tally_, det, tol", [
        (WITNESS_TALLY, 1, 1e-5), (WITNESS_TALLY, 2, 1e-5),
        (EXTENDED_TALLY, 1, 1e-5), (EXTENDED_TALLY, 2, 1e-5),
        (WIDE_TALLY, 1, 5e-5), (WIDE_TALLY, 2, 5e-5)])
    def test_doubling_quadrature_nodes(self, tally_, det, tol, monkeypatch):
        base = witness_distribution(tally_, det)
        monkeypatch.setattr(stats, "WITNESS_NODES", 2 * stats.WITNESS_NODES)
        fine = witness_distribution(tally_, det)
        assert np.abs(fine.mass - base.mass).max() <= tol
        assert abs(fine.below - base.below) <= tol
        assert abs(fine.above - base.above) <= tol
        assert fine.ml_value == base.ml_value
        assert fine.lower == pytest.approx(base.lower, abs=5e-5)
        assert fine.upper == pytest.approx(base.upper, abs=5e-5)

    @pytest.mark.parametrize("tally_", [
        config_tally("witness_run_tally.json"),
        config_tally("extended_phase_tally.json"),
        # planner tallies of plan_fiber.cfg: a 94 km projection with no
        # same-detector coincidence, the first probe at 94 km and at 75 km
        CoincidenceTally(n_trials=4_105_000_000, pump_singles=(46760, 46760),
                         read_singles=(42950, 42950),
                         coincidences=((0, 4), (4, 0))),
        WIDE_TALLY,
        CoincidenceTally(n_trials=5_633_379_961, pump_singles=(135000, 135000),
                         read_singles=(124000, 124000),
                         coincidences=((3, 21), (21, 3))),
    ], ids=["published", "extended", "0-4", "1-10", "3-21"])
    @pytest.mark.parametrize("det", [1, 2])
    def test_bands_skip_only_exact_zeros_and_ones(self, tally_, det):
        cdf, _ = witness_oracle.full_grid_cdf(tally_, det)
        # what the coarse probe relies on: each node's exact 0s are a
        # leading run of the edges and its exact 1s a trailing one
        zero, one = cdf == 0.0, cdf == 1.0
        assert np.array_equal(zero, np.logical_and.accumulate(zero, axis=0))
        assert np.array_equal(one, np.logical_and.accumulate(one[::-1],
                                                             axis=0)[::-1])
        d = witness_distribution(tally_, det)
        ref = witness_oracle.full_grid_distribution(tally_, det)
        assert np.array_equal(d.mass, ref.mass)
        assert (d.below, d.above) == (ref.below, ref.above)
        assert ((d.ml_value, d.lower, d.upper)
                == (ref.ml_value, ref.lower, ref.upper))
        # the tails on both sides of w = 0 join, so no bin there goes negative
        assert d.mass.min() >= 0.0

    @pytest.mark.parametrize("tally_", [WITNESS_TALLY, EXTENDED_TALLY,
                                        WIDE_TALLY],
                             ids=["published", "extended", "1-10"])
    @pytest.mark.parametrize("det", [1, 2])
    def test_integer_valued_real_counts_give_the_same_posterior(self, tally_,
                                                                 det):
        real = CoincidenceTally(
            n_trials=float(tally_.n_trials),
            pump_singles=tuple(map(float, tally_.pump_singles)),
            read_singles=tuple(map(float, tally_.read_singles)),
            coincidences=tuple(tuple(map(float, row))
                               for row in tally_.coincidences))
        d, ref = witness_distribution(real, det), witness_distribution(tally_, det)
        assert np.array_equal(d.mass, ref.mass)
        assert ((d.ml_value, d.lower, d.upper, d.below, d.above)
                == (ref.ml_value, ref.lower, ref.upper, ref.below, ref.above))

    def test_widest_planner_tally_keeps_its_mode_and_tail(self):
        for det in (1, 2):
            d = witness_distribution(WIDE_TALLY, det)
            assert 0 < int(np.argmax(d.mass)) < len(d.mass) - 1
            assert d.ml_value == pytest.approx(0.5375)
            assert 0.011 <= d.above <= 0.012
            assert d.below + d.mass.sum() + d.above == pytest.approx(1.0, abs=1e-12)
            assert np.all(d.mass >= 0)

    def test_posterior_holds_only_its_band_differences(self):
        # the (bins x nodes) CDF differences and one band's temporaries,
        # not the (edges x nodes) CDF beside its np.diff
        n_bins = int(round((stats.WITNESS_MAX - stats.WITNESS_MIN)
                           / stats.WITNESS_GRID_STEP))
        allowed = 8 * n_bins * stats.WITNESS_NODES + 500_000
        for det in (1, 2):
            tracemalloc.start()
            try:
                d = witness_distribution(WIDE_TALLY, det)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - d.grid.nbytes - d.mass.nbytes < allowed

    def test_percentiles_read_at_bin_edges(self):
        # uniform on [0, 1] between 10 % under and 10 % over the grid; the
        # mode bin borrows from its left neighbour, which moves no percentile
        grid = (np.arange(100) + 0.5) * 0.01
        mass = np.full(100, 0.008)
        mass[50] += 0.001
        mass[49] -= 0.001
        ml, lower, upper = stats._mode_and_interval(grid, mass, 0.1)
        assert ml == pytest.approx(0.505)
        assert lower == pytest.approx(0.075, abs=1e-12)
        assert upper == pytest.approx(0.925, abs=1e-12)
        with pytest.raises(StatsError, match="68% interval"):
            stats._mode_and_interval(grid, mass, 0.2)
        with pytest.raises(StatsError, match="68% interval"):
            stats._mode_and_interval(grid, 0.5 * mass, 0.1)
        falling = np.linspace(1.0, 0.0, 100) / 50.0
        with pytest.raises(StatsError, match="mode"):
            stats._mode_and_interval(grid, falling, 0.0)

    def test_median_read_at_bin_edges(self):
        # the uniform distribution of test_percentiles_read_at_bin_edges:
        # the CDF reaches 0.499 at the edge 0.5, and the bin over it holds
        # 0.009
        grid = (np.arange(100) + 0.5) * 0.01
        mass = np.full(100, 0.008)
        mass[50] += 0.001
        mass[49] -= 0.001
        dist = stats.WitnessDistribution(grid=grid, mass=mass, ml_value=0.505,
                                         lower=0.075, upper=0.925, below=0.1)
        assert dist.median == pytest.approx(0.5 + 0.01 / 9, abs=1e-12)
        dist.below = 0.6
        with pytest.raises(StatsError, match="median"):
            dist.median

    def test_symmetrize_keeps_off_grid_pairs_apart(self):
        grid = (np.arange(100) + 0.5) * 0.01
        mass = np.zeros(100)
        mass[40:60] = 0.0475
        d1 = stats.WitnessDistribution(grid=grid, mass=mass, ml_value=0.5,
                                       lower=0.4, upper=0.6, above=0.05)
        d2 = stats.WitnessDistribution(grid=grid, mass=mass, ml_value=0.5,
                                       lower=0.4, upper=0.6, below=0.05)
        sym = symmetrize(d1, d2)
        assert sym.below == 0.0
        assert sym.mass.sum() == pytest.approx(0.9025)
        assert sym.above == pytest.approx(0.0975)
        # the pairs with a component off the grid never count below
        assert confidence_below(sym, 0.9) == pytest.approx(0.9025)

    def test_confidence_outside_unit_interval_raises(self):
        grid = (np.arange(100) + 0.5) * 0.01
        d = stats.WitnessDistribution(grid=grid, mass=np.full(100, 0.011),
                                      ml_value=0.5, lower=0.2, upper=0.8)
        with pytest.raises(StatsError, match="outside"):
            confidence_below(d, 0.005)

    def test_confidence_never_reads_above_one(self):
        # in-grid masses are CDF differences; here they sum to 1 + 2e-16
        grid = (np.arange(100) + 0.5) * 0.01
        mass = np.zeros(100)
        mass[40:60] = 0.05
        mass[50] += 1.5e-16
        assert mass.sum() == 1.0 + 2.0**-52
        d = stats.WitnessDistribution(grid=grid, mass=mass, ml_value=0.505,
                                      lower=0.45, upper=0.55)
        assert confidence_below(d, 2.0) == 1.0
        assert confidence_below(d, 0.6) == 1.0
        assert confidence_below(d, 0.5) == pytest.approx(0.5, abs=1e-15)

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


class TestFringeTools:
    def test_visibility_from_extrema(self):
        assert visibility([7.783, 0.830]) == pytest.approx(0.807, abs=0.001)

    def test_flat_fringe_has_zero_visibility(self):
        assert visibility([3.0, 3.0, 3.0]) == 0.0

    def test_fitted_mode_recovers_known_visibility(self):
        # the sinusoid-fit contrast the time sweep reports per window
        rng = np.random.default_rng(8)
        x = np.linspace(0, 4 * math.pi, 40)
        y = 4.0 * (1 + 0.8 * np.cos(x - 0.3)) + rng.normal(0, 0.05, x.size)
        value, used = cli._window_visibility(x, y, y)
        assert value == pytest.approx(0.80, abs=0.01)
        assert used == {"cross": "fit_fringe", "same": "fit_fringe"}

    def test_window_visibility_names_its_fallback(self):
        # four points are too few to fit; a flat series is flagged
        x = np.linspace(0, 2 * math.pi, 8)
        flat = np.full(8, 3.0)
        fringe = 4.0 * (1 + 0.8 * np.cos(x))
        value, used = cli._window_visibility(x[:4], fringe[:4], fringe[:4])
        assert used == {"cross": "visibility", "same": "visibility"}
        assert value == pytest.approx(visibility(fringe[:4]))
        value, used = cli._window_visibility(x, fringe, flat)
        assert used == {"cross": "fit_fringe", "same": "visibility"}

    def test_window_visibility_falls_back_on_an_unresolved_period(self):
        # a straight line has no slope root within the period bounds: its
        # fit comes back flagged, and the window takes the extrema instead
        x = np.arange(8.0)
        line = 1.0 + 0.5 * x
        assert fit_fringe(x, line).flagged
        value, used = cli._window_visibility(x, line, line)
        assert used == {"cross": "visibility", "same": "visibility"}
        assert value == pytest.approx(visibility(line))

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

    # a 5-point delay window of the 1 us time sweep: cross - same g2
    # differences of amplitude about 0.9 with sigma about 0.045
    DELAY_PERIOD = 1 / 45e6
    DELAY_X = (1000.0 + 4.44 * np.arange(5)) * 1e-9
    DELAY_SIGMA = np.full(5, 0.045)

    def _delay_window(self, rng):
        x0 = rng.uniform(0, self.DELAY_PERIOD)
        theta = 2 * math.pi * (self.DELAY_X - x0) / self.DELAY_PERIOD
        return 0.1 + 0.9 * np.cos(theta) + rng.normal(0, self.DELAY_SIGMA)

    @staticmethod
    def _profiled_cost(x, y, sigma, period):
        w = 2 * math.pi / period
        basis = np.stack([np.ones_like(x), np.cos(w * x), np.sin(w * x)], axis=1)
        coef, *_ = np.linalg.lstsq(basis / sigma[:, None], y / sigma, rcond=None)
        resid = (basis @ coef - y) / sigma
        return float(resid @ resid)

    def test_fit_does_not_depend_on_the_unit_of_x(self):
        y = self._delay_window(np.random.default_rng(11))
        sec = fit_fringe(self.DELAY_X, y, self.DELAY_SIGMA)
        ns = fit_fringe(self.DELAY_X * 1e9, y, self.DELAY_SIGMA)
        assert ns.period == pytest.approx(1e9 * sec.period, rel=1e-9)
        assert ns.period_error == pytest.approx(1e9 * sec.period_error, rel=1e-9)
        assert ns.amplitude == pytest.approx(sec.amplitude, rel=1e-9)
        assert ns.offset == pytest.approx(sec.offset, rel=1e-9)

    def test_fitted_period_minimizes_the_profiled_cost(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            y = self._delay_window(rng)
            fit = fit_fringe(self.DELAY_X, y, self.DELAY_SIGMA)
            at_fit = self._profiled_cost(self.DELAY_X, y, self.DELAY_SIGMA, fit.period)
            # the fine scan's step is 0.35 %; scan one step either side
            dense = fit.period * np.linspace(0.9965, 1.0035, 701)
            lowest = min(self._profiled_cost(self.DELAY_X, y, self.DELAY_SIGMA, p)
                         for p in dense)
            assert at_fit <= lowest * (1 + 1e-12)

    def test_period_error_is_calibrated(self):
        rng = np.random.default_rng(13)
        z = []
        for _ in range(200):
            fit = fit_fringe(self.DELAY_X, self._delay_window(rng), self.DELAY_SIGMA)
            z.append((fit.period - self.DELAY_PERIOD) / fit.period_error)
        assert 0.8 <= math.sqrt(np.mean(np.square(z))) <= 1.25

    def test_period_error_from_the_four_parameter_jacobian(self):
        # sqrt[(J^T J)^-1] of the period, J the Jacobian of
        # (off + amp cos(2 pi (x - x0) / period) - y) / sigma
        rng = np.random.default_rng(14)
        x = np.linspace(0, 3.5 * math.pi, 24)
        sigma = rng.uniform(0.02, 0.06, x.size)
        y = 0.2 + 1.5 * np.cos(x - 0.7) + rng.normal(0, sigma)
        fit = fit_fringe(x, y, sigma)
        amp, period, x0 = fit.amplitude, fit.period, fit.phase
        theta = 2 * math.pi * (x - x0) / period
        jac = np.stack([np.cos(theta),
                        amp * np.sin(theta) * theta / period,
                        amp * np.sin(theta) * 2 * math.pi / period,
                        np.ones_like(x)], axis=1) / sigma[:, None]
        cov = np.linalg.inv(jac.T @ jac)
        assert fit.period_error == pytest.approx(math.sqrt(cov[1, 1]), rel=1e-9)

    def test_zero_sigma_raises(self):
        x, y = self.DELAY_X, self._delay_window(np.random.default_rng(15))
        with pytest.raises(StatsError, match="positive"):
            fit_fringe(x, y, np.where(np.arange(5) == 2, 0.0, 0.045))

    def test_negative_sigma_raises(self):
        x, y = self.DELAY_X, self._delay_window(np.random.default_rng(15))
        with pytest.raises(StatsError, match="positive"):
            fit_fringe(x, y, -self.DELAY_SIGMA)

    def test_nan_value_raises(self):
        y = self._delay_window(np.random.default_rng(15))
        y[3] = np.nan
        with pytest.raises(StatsError, match="finite"):
            fit_fringe(self.DELAY_X, y, self.DELAY_SIGMA)
        with pytest.raises(StatsError, match="finite"):
            fit_fringe(self.DELAY_X, y)

    def test_non_finite_x_or_sigma_raises(self):
        y = self._delay_window(np.random.default_rng(15))
        x = self.DELAY_X.copy()
        x[0] = np.inf
        with pytest.raises(StatsError, match="finite"):
            fit_fringe(x, y, self.DELAY_SIGMA)
        with pytest.raises(StatsError, match="finite"):
            fit_fringe(self.DELAY_X, y, np.full(5, np.nan))

    def test_period_running_off_the_bounds_is_flagged(self):
        # a straight line is best fitted by an ever longer period
        x = np.arange(8.0)
        fit = fit_fringe(x, 0.5 * x, np.full(8, 0.01))
        assert fit.flagged
        assert math.isnan(fit.period) and fit.period_error == math.inf
