"""Counting statistics: tallies, correlation estimates, witness pipeline."""

import functools
import json
import math
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import witness_oracle
from mechlink import campaign, cli, planner, protocol, stats
from mechlink.campaign import ClickLog
from mechlink.config import parse_config
from mechlink.stats import (CoincidenceTally, StatsError, confidence_below,
                            fit_fringe, fringe_contrast, g2_from_counts,
                            symmetrize, tally, visibility, witness_distribution,
                            witness_from_g2)

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


@functools.cache
def entangle_stats_model():
    return protocol.build_trial_model(parse_config(os.path.join(
        os.path.dirname(__file__), "..", "configs", "entangle_stats.cfg")).protocol)


def entangle_stats_tally(n_trials, seed) -> CoincidenceTally:
    """A tally of `n_trials` drawn from entangle_stats.cfg's exact joint table."""
    counts = campaign.code_counts(entangle_stats_model(), n_trials, seed)
    return stats.tally_from_counts(counts, n_trials)


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
        # a plan-fiber posterior, on every edge of the band the witness CDF
        # reads
        from scipy.special import betainc
        for tally_, det in ((WITNESS_TALLY, 1), (WITNESS_TALLY, 2),
                            (WIDE_TALLY, 1)):
            a, weights, (c, n, scale), b = stats._witness_nodes(tally_, det)
            step, first, last = stats._witness_band(a, weights, b)
            edges = step * np.arange(first, last + 1.0)
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

    @staticmethod
    def tail_bound_holds(a, b, x) -> int:
        """Check w <= pre (a0 + 1) / (a0 (1 + |lambda|)) where w and pre are
        normal, to the rounding of the bound's four operations; return how
        many elements were checked.  At the underflow edge w / pre is
        meaningless (5e-324 over 1.9e-321)."""
        w, pre, lam = stats._beta_tail([(float(a), float(b))], 0, x)
        a0 = np.where(lam >= 0.0, a, b)
        bound = pre * (a0 + 1.0) / (a0 * (1.0 + np.abs(lam)))
        normal = (w >= np.finfo(float).tiny) & (pre >= np.finfo(float).tiny)
        assert (w[normal] <= bound[normal] * (1.0 + 4 * np.finfo(float).eps)).all()
        return int(normal.sum())

    @pytest.mark.parametrize("b", B)
    @pytest.mark.parametrize("a", A)
    def test_tail_is_bounded_by_its_prefactor_on_the_grid(self, a, b):
        # what the pruned CDFs rely on; at b0 = 1 the fraction stops after
        # its head and the bound is an equality
        x = self.grid(a, b)
        assert self.tail_bound_holds(a, b, x[(x > 0.0) & (x < 1.0)]) > 0

    @given(a=st.floats(1.0, 3e4), b=st.floats(1.0, 5e6),
           z=st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_tail_is_bounded_by_its_prefactor_on_draws(self, a, b, z):
        mean = a / (a + b)
        sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
        x = mean + sd * np.array(z)
        self.tail_bound_holds(a, b, x[(x > 0.0) & (x < 1.0)])

    @staticmethod
    def bd0_everywhere(m, big_m, d):
        # the series and the logarithm on every element, then picked
        v = -d / (m + big_m)
        v2 = v * v
        series = np.full_like(v, stats._BD0_SERIES[-1])
        for coef in stats._BD0_SERIES[-2::-1]:
            series *= v2
            series += coef
        series *= 2.0 * m * v * v2
        series -= v * d
        with np.errstate(divide="ignore"):
            far = m * np.log(m / big_m) + d
        return np.where(v2 < 0.01, series, far)

    @given(m=st.lists(st.floats(1.0, 1e7), min_size=1, max_size=30),
           ratio=st.lists(st.floats(1e-6, 3.0), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_deviance_series_only_where_near(self, m, ratio):
        # M = m r; r within 0.1 / 1.1 ... 1.1 / 0.9 of 1 takes the series
        k = min(len(m), len(ratio))
        m, ratio = np.array(m[:k]), np.array(ratio[:k])
        big_m = m * ratio
        for mm in (m[0], m):            # one posterior's a, or one per element
            d = big_m - mm
            got, want = stats._bd0(mm, big_m, d), self.bd0_everywhere(mm, big_m, d)
            assert np.array_equal(got, want)


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
        d = witness_distribution(tally_, det)
        rng = np.random.default_rng(2017)
        n = 10**6
        a, b = (rng.beta(tally_.coincidence(i, det) + 1,
                         tally_.pump_singles[det - 1] - tally_.coincidence(i, det) + 1,
                         n) * tally_.n_trials / tally_.read_singles[i - 1]
                for i in (1, 2))
        w = 4.0 * (a + b - 1.0) / (a - b) ** 2
        step = d.grid[1] - d.grid[0]
        edges = np.append(d.grid - 0.5 * step, d.grid[-1] + 0.5 * step)
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
        # on one fixed band: the band itself is placed from the nodes
        a, weights, _, b = stats._witness_nodes(tally_, det)
        band = stats._witness_band(a, weights, b)
        monkeypatch.setattr(stats, "_witness_band", lambda *nodes: band)
        base = witness_distribution(tally_, det)
        monkeypatch.setattr(stats, "WITNESS_NODES", 2 * stats.WITNESS_NODES)
        fine = witness_distribution(tally_, det)
        assert np.abs(fine.mass - base.mass).max() <= tol
        assert abs(fine.below - base.below) <= tol
        assert abs(fine.above - base.above) <= tol
        assert fine.ml_value == base.ml_value
        assert fine.lower == pytest.approx(base.lower, abs=5e-5)
        assert fine.upper == pytest.approx(base.upper, abs=5e-5)

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
        # the band reaches 10 upper half widths past the 84th percentile,
        # 1.66; the mass over it is about 0.02
        for det in (1, 2):
            d = witness_distribution(WIDE_TALLY, det)
            assert 0 < int(np.argmax(d.mass)) < len(d.mass) - 1
            assert d.ml_value == pytest.approx(0.546875)
            assert 0.020 <= d.above <= 0.022
            assert d.below + d.mass.sum() + d.above == pytest.approx(1.0, abs=1e-12)
            assert np.all(d.mass >= 0)

    def test_posterior_holds_only_one_chunk_of_its_band(self):
        # one (band edges x nodes) CDF table, one WITNESS_BLOCK chunk's
        # temporaries and the beta kernel's tables, built afresh (2.5 MB in
        # all), not the temporaries of the whole table: evaluated in one
        # call, the band of this tally peaked at 6.8 MB with the tables built
        for det in (1, 2):
            stats._FRACTIONS.clear()
            tracemalloc.start()
            try:
                d = witness_distribution(WIDE_TALLY, det)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            table = 8 * (len(d.mass) + 1) * stats.WITNESS_NODES
            assert peak - d.grid.nbytes - d.mass.nbytes < table + 3_000_000

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


def coarsened(d, ratio) -> stats.WitnessDistribution:
    """`d` with each `ratio` of its bins summed, on a lattice whose edges are
    multiples of the coarse step, as band grids' edges are."""
    step = d.grid[1] - d.grid[0]
    first = round(d.grid[0] / step - 0.5)
    pad = first % ratio
    mass = np.r_[np.zeros(pad), d.mass, np.zeros(-(pad + len(d.mass)) % ratio)]
    mass = mass.reshape(-1, ratio).sum(axis=1)
    grid = (first - pad) * step + ratio * step * (np.arange(len(mass)) + 0.5)
    return stats.WitnessDistribution(grid=grid, mass=mass, ml_value=d.ml_value,
                                     lower=d.lower, upper=d.upper,
                                     below=d.below, above=d.above)


class TestWitnessBand:
    """Each posterior is binned on its own band, at a power-of-two step."""

    @pytest.mark.parametrize("tally_", [
        WITNESS_TALLY, EXTENDED_TALLY, WIDE_TALLY,
        # planner tallies of plan_fiber.cfg: a 94 km projection with no
        # same-detector coincidence, and the first probe at 75 km
        CoincidenceTally(n_trials=4_105_000_000, pump_singles=(46760, 46760),
                         read_singles=(42950, 42950),
                         coincidences=((0, 4), (4, 0))),
        CoincidenceTally(n_trials=5_633_379_961, pump_singles=(135000, 135000),
                         read_singles=(124000, 124000),
                         coincidences=((3, 21), (21, 3))),
        # the 68% interval of detector 1 here is 0.0145 wide
        entangle_stats_tally(10**8, 7),
    ], ids=["published", "extended", "1-10", "0-4", "3-21", "entangle_stats-1e8"])
    def test_matches_a_band_ten_times_finer(self, tally_):
        # every percentile within 1e-3 of its 68% width, the confidence
        # within 1e-4; on a fixed 0.005 grid the 1e8 interval was about 3 %
        # of its width wide at each end
        dists, refs = ([f(tally_, det) for det in (1, 2)] for f in (
            witness_distribution, witness_oracle.band_distribution))
        dists.append(symmetrize(*dists))
        refs.append(symmetrize(*refs))
        for d, ref in zip(dists, refs):
            width = ref.upper - ref.lower
            for got, want in ((d.lower, ref.lower), (d.median, ref.median),
                              (d.upper, ref.upper)):
                assert abs(got - want) <= 1e-3 * width
            assert d.mass.min() >= 0.0
        assert abs(confidence_below(dists[2], 1.0)
                   - confidence_below(refs[2], 1.0)) <= 1e-4

    @pytest.mark.parametrize("tally_", [WITNESS_TALLY, WIDE_TALLY],
                             ids=["published", "1-10"])
    def test_chunks_add_up_to_one_pass(self, tally_):
        # the band's CDF chunk by chunk, against each node on its own
        d = witness_distribution(tally_, 1)
        ref = witness_oracle.band_distribution(tally_, 1, refine=1)
        assert np.array_equal(d.grid, ref.grid)
        assert np.abs(d.mass - ref.mass).max() <= 1e-15
        assert d.below == pytest.approx(ref.below, rel=1e-12, abs=1e-300)
        assert d.above == pytest.approx(ref.above, rel=1e-12, abs=1e-300)

    def test_steps_are_powers_of_two_near_a_32nd_to_64th_of_the_width(self):
        # the step is set from the nodes' own 68% width, which lies near
        # the posterior's: 37 to 60 bins span it on these tallies
        for tally_ in (WITNESS_TALLY, EXTENDED_TALLY, WIDE_TALLY):
            for det in (1, 2):
                d = witness_distribution(tally_, det)
                step = d.grid[1] - d.grid[0]
                assert math.log2(step) == round(math.log2(step))
                assert 28 < (d.upper - d.lower) / step < 80
                # the edges are multiples of the step
                assert (d.grid[0] - 0.5 * step) / step == round(
                    (d.grid[0] - 0.5 * step) / step)

    @pytest.mark.parametrize("fine_post, coarse_post, ratio", [
        ((EXTENDED_TALLY, 1), (WITNESS_TALLY, 2), 2),
        ((WITNESS_TALLY, 2), (WIDE_TALLY, 1), 4)])
    def test_nested_steps_merge_whole_bins(self, fine_post, coarse_post, ratio):
        fine = witness_distribution(*fine_post)
        coarse = witness_distribution(*coarse_post)
        assert (coarse.grid[1] - coarse.grid[0]
                == ratio * (fine.grid[1] - fine.grid[0]))
        for sym in (symmetrize(fine, coarse), symmetrize(coarse, fine)):
            # no in-band mass is lost or made
            assert abs(sym.mass.sum() - fine.mass.sum() * coarse.mass.sum()) <= 1e-15
            ref = symmetrize(coarsened(fine, ratio), coarse)
            assert np.abs(sym.mass - ref.mass).max() <= 1e-15
            assert np.allclose(sym.grid, ref.grid, rtol=0.0, atol=1e-12)
            assert (sym.below, sym.above) == pytest.approx((ref.below, ref.above),
                                                           rel=1e-12, abs=1e-300)
            assert ((sym.ml_value, sym.lower, sym.upper)
                    == pytest.approx((ref.ml_value, ref.lower, ref.upper),
                                     abs=1e-12))

    def test_nested_grids_centred_on_step_multiples(self):
        # a delta at 0.57 on bins centred on multiples of 0.01, and one at
        # 0.405 on bins of 0.02 whose edges sit at 0.005 + 0.02 k - 0.01:
        # the first is summed into the coarse bin [0.555, 0.575]
        fine_grid = np.arange(200) * 0.01
        coarse_grid = 0.005 + np.arange(100) * 0.02
        fine_mass, coarse_mass = np.zeros(200), np.zeros(100)
        fine_mass[57] = coarse_mass[20] = 1.0
        fine = stats.WitnessDistribution(grid=fine_grid, mass=fine_mass,
                                         ml_value=0.57, lower=0.57, upper=0.57)
        coarse = stats.WitnessDistribution(grid=coarse_grid, mass=coarse_mass,
                                           ml_value=0.405, lower=0.405,
                                           upper=0.405)
        for sym in (symmetrize(fine, coarse), symmetrize(coarse, fine)):
            assert sym.mass.sum() == 1.0
            assert sym.ml_value == pytest.approx(0.5 * (0.565 + 0.405), abs=1e-9)
            assert sym.grid[1] - sym.grid[0] == pytest.approx(0.01)

    def test_grids_that_do_not_nest_raise(self):
        grid = np.arange(200) * 0.01
        mass = np.full(200, 0.005)
        d = stats.WitnessDistribution(grid=grid, mass=mass, ml_value=1.0,
                                      lower=0.3, upper=1.7)
        for other in (grid * 2.5, 0.02 * np.arange(100)):
            # a step ratio of 2.5, and edges half a fine bin off the coarse ones
            e = stats.WitnessDistribution(grid=other, mass=mass[:len(other)],
                                          ml_value=1.0, lower=0.3, upper=1.7)
            with pytest.raises(StatsError, match="incompatible"):
                symmetrize(d, e)

    def test_confidence_counts_mass_under_the_grid_over_a_threshold_under_it(self):
        grid = 4.0 + (np.arange(100) + 0.5) * 0.01
        mass = np.full(100, 0.009)
        d = stats.WitnessDistribution(grid=grid, mass=mass, ml_value=4.5,
                                      lower=4.1, upper=4.9, below=0.05,
                                      above=0.05)
        assert confidence_below(d, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert confidence_below(d, 4.5) == pytest.approx(0.5)


@st.composite
def integer_tallies(draw):
    """Integer tallies whose cells expect g C_r C_p / N coincidences, g up
    to 12, from under one to thousands."""
    n = draw(st.integers(10**8, 2 * 10**11))
    cp = [draw(st.integers(1000, 400_000)) for _ in (1, 2)]
    cr = [draw(st.integers(1000, 400_000)) for _ in (1, 2)]
    coinc = tuple(tuple(min(round(draw(st.floats(0.0, 12.0)) * cr[i] * cp[j] / n),
                            cr[i], cp[j]) for j in (0, 1)) for i in (0, 1))
    return CoincidenceTally(n_trials=n, pump_singles=tuple(cp),
                            read_singles=tuple(cr), coincidences=coinc)


@functools.cache
def plan_fiber_link():
    return cli._link_from_config(parse_config(os.path.join(
        os.path.dirname(__file__), "..", "configs", "plan_fiber.cfg")).plan_fiber)


class TestPrunedWitnessKernel:
    """`witness_distribution` equals, bit for bit, the same chunked
    accumulation of the unpruned kernel (`witness_oracle.conditional_cdf`),
    where every root's beta CDF runs its continued fraction."""

    @staticmethod
    def outcome(tally_, det):
        try:
            return witness_distribution(tally_, det)
        except StatsError as exc:
            return str(exc)

    def assert_unpruned_result(self, tally_, det):
        got = self.outcome(tally_, det)
        with mock.patch.object(stats, "_conditional_cdf",
                               witness_oracle.conditional_cdf):
            want = self.outcome(tally_, det)
        if isinstance(want, str):
            assert got == want
            return
        assert np.array_equal(got.grid, want.grid)
        assert np.array_equal(got.mass, want.mass)
        assert ((got.ml_value, got.lower, got.upper, got.below, got.above)
                == (want.ml_value, want.lower, want.upper, want.below, want.above))

    @given(tally_=integer_tallies(), det=st.sampled_from([1, 2]))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_integer_tallies(self, tally_, det):
        self.assert_unpruned_result(tally_, det)

    @given(km=st.floats(0.0, 94.0), log_scale=st.floats(math.log(0.01),
                                                       math.log(10.0)))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_mirrored_planner_tallies(self, km, log_scale):
        # plan_fiber.cfg's projections from one expected same-detector
        # coincidence to ten times the solve's start; the heralds mirror
        link = plan_fiber_link()
        split = planner.split_separation(link, km)
        rate_scale = 10.0 ** (-max(split.arm_a_db, split.arm_b_db) / 10.0)
        start = (4.0 * planner.START_COINCIDENCES
                 / (link.herald_prob * link.read_prob * rate_scale**2))
        t = planner._projected_tally(link, split.g2_floor, rate_scale,
                                     start * math.exp(log_scale))
        self.assert_unpruned_result(t, 1)

    @pytest.mark.parametrize("tally_", [
        WIDE_TALLY,
        CoincidenceTally(n_trials=4_105_000_000, pump_singles=(46760, 46760),
                         read_singles=(42950, 42950),
                         coincidences=((0, 4), (4, 0)))], ids=["1-10", "0-4"])
    def test_bands_through_zero_and_complex_roots(self, tally_):
        # the band reaches w <= 0, some (edge, node) pairs have D < 0, and
        # the pruned kernel runs fewer fractions for the same numbers
        a, weights, post_b, b = stats._witness_nodes(tally_, 1)
        step, first, last = stats._witness_band(a, weights, b)
        edges = step * np.arange(first, last + 1.0)
        assert edges[0] < 0.0
        assert (1.0 + edges[:, None] * (2.0 * a - 1.0) < 0.0).any()
        run = []
        fraction = stats._fraction

        def counted(posts, which, x, lam):
            run[-1] += len(x)
            return fraction(posts, which, x, lam)

        with mock.patch.object(stats, "_fraction", counted):
            for kernel in (stats._conditional_cdf, witness_oracle.conditional_cdf):
                run.append(0)
                kernel(a, edges[:, None], *post_b)
        assert run[0] < run[1]
        self.assert_unpruned_result(tally_, 1)


class TestWitnessCoverage:
    """The posterior's PIT at the exact witness, over tallies drawn from
    entangle_stats.cfg's exact joint table: the share inside [0.16, 0.84]
    and the ten decile counts, each two-sided at a family-wise level of
    1e-3 over the 22 checks of both trial counts."""

    LEVEL = 1e-3 / 22
    SEEDS = 1000

    @pytest.mark.parametrize("n_trials, first_seed", [(10**7, 30000),
                                                      (10**8, 20000)])
    def test_pit_is_uniform(self, n_trials, first_seed):
        from scipy.stats import binom
        model = entangle_stats_model()
        truth = witness_from_g2(model.g2_exact(1, 1), model.g2_exact(2, 1))
        p_codes = model.joint.T.ravel()[1:]
        pvals = np.append(p_codes, 1.0 - p_codes.sum())
        pits = np.empty(self.SEEDS)
        for k in range(self.SEEDS):
            rng = np.random.default_rng(first_seed + k)
            counts = np.roll(rng.multinomial(n_trials, pvals), 1)
            a, weights, post_b, _ = stats._witness_nodes(
                stats.tally_from_counts(counts, n_trials), 1)
            pits[k] = weights @ stats._conditional_cdf(a, truth, *post_b)

        def within(count, p):
            lo, hi = binom.ppf(0.5 * self.LEVEL, self.SEEDS, p), binom.isf(
                0.5 * self.LEVEL, self.SEEDS, p)
            return lo <= count <= hi

        inside = int(((pits >= 0.16) & (pits <= 0.84)).sum())
        assert within(inside, 0.68), inside
        deciles = np.histogram(pits, bins=np.linspace(0.0, 1.0, 11))[0]
        assert all(within(c, 0.1) for c in deciles), deciles


class TestFringeTools:
    def test_visibility_from_extrema(self):
        assert visibility([7.783, 0.830]) == pytest.approx(0.807, abs=0.001)

    def test_flat_fringe_has_zero_visibility(self):
        assert visibility([3.0, 3.0, 3.0]) == 0.0

    def test_fitted_mode_recovers_known_visibility(self):
        # the known-period contrast the sweeps report per window
        rng = np.random.default_rng(8)
        x = np.linspace(0, 4 * math.pi, 40)
        y = 4.0 * (1 + 0.8 * np.cos(x - 0.3)) + rng.normal(0, 0.05, x.size)
        value, = fringe_contrast(x, [y], 2 * math.pi)
        assert value == pytest.approx(0.80, abs=0.01)

    def test_fringe_contrast_fits_each_series_on_its_own(self):
        # one solve over the stacked series equals a solve per series; a
        # flat series has no contrast, and a trough below zero is floored
        x = np.linspace(0.0, 2e-8, 5)
        period = 1 / 45e6
        rows = [3.0 + 2.0 * np.cos(2 * math.pi * x / period - 0.4),
                np.full(5, 3.0),
                0.5 + 2.0 * np.sin(2 * math.pi * x / period)]
        stacked = fringe_contrast(x, rows, period)
        assert stacked == pytest.approx([2.0 / 3.0, 0.0, 1.0], abs=1e-12)
        for row, value in zip(rows, stacked):
            assert fringe_contrast(x, [row], period)[0] == pytest.approx(value, abs=1e-15)

    def test_fringe_contrast_rejects_what_it_cannot_fit(self):
        x = np.linspace(0, 2 * math.pi, 8, endpoint=False)
        fringe = 4.0 * (1 + 0.8 * np.cos(x))
        with pytest.raises(StatsError, match="need 3 samples"):
            fringe_contrast(x[:2], [fringe[:2]], 2 * math.pi)
        # samples a whole period apart see one phase of the fringe
        with pytest.raises(StatsError, match="need 3 samples at distinct fringe phases"):
            fringe_contrast(2 * math.pi * np.arange(5), [np.arange(5.0)], 2 * math.pi)
        # a fitted top at or below zero has no contrast
        with pytest.raises(StatsError, match="top not positive"):
            fringe_contrast(x, [fringe, -fringe], 2 * math.pi)

    def test_period_fit_and_contrast_share_one_basis(self):
        # the fixed-period solve inside fit_fringe builds the same columns:
        # at the fitted period its offset and amplitude give the contrast
        rng = np.random.default_rng(5)
        x = np.linspace(0, 3.5 * math.pi, 24)
        y = 3.0 + 2.0 * np.cos(x - 0.7) + rng.normal(0, 0.02, x.size)
        fit = fit_fringe(x, y)
        top, bot = fit.offset + fit.amplitude, fit.offset - fit.amplitude
        assert fringe_contrast(x, [y], fit.period)[0] == pytest.approx(
            (top - bot) / (top + bot), rel=1e-12)

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


class TestRegulaFalsi:
    def test_halving_closes_a_one_sided_bracket(self):
        # plain false position keeps x = 2 for good and never closes this
        # bracket; halving the kept end's value closes it in ten probes
        probes = []

        def probe(x):
            probes.append(x)
            return x, x**3 - 2.0

        lo, hi = stats.regula_falsi(probe, (0.0, -2.0), (2.0, 6.0),
                                    lambda a, b: b - a <= 1e-12)
        assert lo[0] <= 2.0 ** (1 / 3) <= hi[0]
        assert lo[1] < 0.0 <= hi[1] and hi[0] - lo[0] <= 1e-12
        assert len(probes) == 10

    def test_an_exact_zero_ends_the_solve_at_both_ends(self):
        # the first secant of a line lands on its root exactly
        probes = []

        def probe(x):
            probes.append(x)
            return x, x - 1.0

        ends = stats.regula_falsi(probe, (0.0, -1.0), (4.0, 3.0),
                                  lambda a, b: b - a <= 1e-12)
        assert ends == ((1.0, 0.0), (1.0, 0.0)) and probes == [1.0]

    def test_a_bracket_left_open_after_max_steps_gives_none(self):
        probes = []

        def probe(x):
            probes.append(x)
            return x, x**3 - 2.0

        assert stats.regula_falsi(probe, (0.0, -2.0), (2.0, 6.0),
                                  lambda a, b: False, max_steps=3) is None
        assert len(probes) == 3
