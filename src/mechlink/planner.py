"""Pre-experiment planning: device-matching yield and fiber-link budgets.

Yield estimates treat per-chip optical resonances as Gaussian draws and
ask how likely a cross-chip match within a small frequency window is.
Link budgets degrade the cross-correlation by scaling the constant
background relative to the co-propagating signal and leak, then convert
allowable loss into fiber length and integration time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtr

from .noise import NoiseBudget, g2_cross
from . import stats as counting

C_LIGHT = 299_792_458.0


class PlannerError(ValueError):
    pass


# ---------------------------------------------------------------------------
# device-matching yield


@dataclass(frozen=True)
class YieldModel:
    chips: int
    devices_per_chip: int
    sigma_nm: tuple                 # per-chip wavelength spread
    offsets_nm: tuple               # per-chip center offsets
    window_mhz: float = 100.0
    carrier_nm: float = 1550.0

    def __post_init__(self):
        if self.chips < 2:
            raise PlannerError("need at least two chips")
        if self.devices_per_chip < 1:
            raise PlannerError("need at least one device per chip")
        if len(self.sigma_nm) != self.chips or len(self.offsets_nm) != self.chips:
            raise PlannerError("need one sigma and offset per chip")
        if any(s <= 0 for s in self.sigma_nm):
            raise PlannerError("sigma must be positive")
        if self.window_mhz <= 0:
            raise PlannerError("match window must be positive")

    @property
    def window_nm(self) -> float:
        """Wavelength equivalent of the frequency window at the carrier."""
        lam = self.carrier_nm * 1e-9
        return lam**2 * (self.window_mhz * 1e6) / C_LIGHT * 1e9


@dataclass
class YieldEstimate:
    analytic: float
    monte_carlo: float
    monte_carlo_se: float
    pair_probability: float


def _pair_match_probability(model: YieldModel, chip_a: int = 0,
                            chip_b: int = 1) -> float:
    """P(|X - Y| < window) for one cross-chip device pair."""
    mu = model.offsets_nm[chip_a] - model.offsets_nm[chip_b]
    s = math.hypot(model.sigma_nm[chip_a], model.sigma_nm[chip_b])
    w = model.window_nm
    return float(ndtr((w - mu) / s) - ndtr((-w - mu) / s))


def _binomial_se(p_hat: float, reps: int) -> float:
    # floored at the one-count scale so boundary estimates stay usable
    return math.sqrt(max(p_hat * (1 - p_hat), 1.0 / reps) / reps)


def multi_chip_yield(model: YieldModel, mc_reps: int = 100_000,
                     seed: int = 1) -> YieldEstimate:
    """Probability of a c-way cross-chip match, for any c >= 2.

    The analytic estimate chains pairwise matches independently along
    the chips sorted by center offset, k_1 ... k_c: p_tuple =
    p(k_1, k_2) ... p(k_c-1, k_c) and yield = 1 - (1 - p_tuple)^(n^c);
    this is the birthday-paradox-style extrapolation, and the sort keeps
    it from depending on how the chips are numbered.  The Monte Carlo
    counts repetitions holding a tuple that is mutually within the window
    (one device per chip, all pairwise differences below it), which is
    the stricter geometric criterion for c > 2; it is reported with its
    standard error and is the more conservative planning figure when the
    two disagree.
    """
    c = model.chips
    chain = sorted(range(c), key=lambda k: (model.offsets_nm[k],
                                            model.sigma_nm[k]))
    p_tuple = math.prod(_pair_match_probability(model, i, j)
                        for i, j in zip(chain, chain[1:]))
    n_tuples = model.devices_per_chip**c
    analytic = 1.0 - (1.0 - p_tuple) ** n_tuples

    rng = np.random.default_rng(seed)
    n = model.devices_per_chip
    hits = 0
    chunk = max(1, int(4e6 / (c * n)))
    done = 0
    while done < mc_reps:
        m = min(chunk, mc_reps - done)
        lam = np.stack([rng.normal(model.offsets_nm[k], model.sigma_nm[k],
                                   size=(m, n)) for k in range(c)], axis=1)
        hits += int(np.count_nonzero(_matched_repetitions(lam, model.window_nm)))
        done += m
    mc = hits / mc_reps
    se = _binomial_se(mc, mc_reps)
    return YieldEstimate(analytic=analytic, monte_carlo=mc, monte_carlo_se=se,
                         pair_probability=p_tuple)


def _matched_repetitions(lam: np.ndarray, window: float) -> np.ndarray:
    """Repetitions holding a one-per-chip tuple with range < window.

    lam has shape (reps, chips, devices).  The tightest such tuple whose
    smallest wavelength is a given one takes, from every chip, that chip's
    next wavelength at or above it; a repetition matches when, for some
    wavelength, the farthest of those lies less than the window above it.
    Every tuple is covered by the one starting at its smallest member, so
    the test is exact.
    """
    reps, chips, n = lam.shape
    flat = lam.reshape(reps, chips * n)
    # descending, so a running minimum along a row looks ahead
    order = np.argsort(flat, axis=1)[:, ::-1]
    svals = np.take_along_axis(flat, order, axis=1)
    chip = order // n
    farthest = np.full_like(svals, -np.inf)
    for k in range(chips):
        nearest_k = np.minimum.accumulate(np.where(chip == k, svals, np.inf),
                                          axis=1)
        np.maximum(farthest, nearest_k, out=farthest)
    return ((farthest - svals) < window).any(axis=1)


# ---------------------------------------------------------------------------
# link budget


@dataclass(frozen=True)
class LinkBudget:
    budget_a: NoiseBudget
    budget_b: NoiseBudget
    tau: float = 123e-9
    attenuation_db_per_km: float = 0.17
    repetition_period: float = 50e-6
    overhead_fraction: float = 0.15
    herald_prob: float = 2.7e-4             # pump-window click probability per trial
    read_prob: float = 2.48e-4              # read-window click probability per trial
    herald_dilution: bool = True            # background also dilutes heralds
    include_decay: bool = True              # keep the e^{-decay tau} factor

    def __post_init__(self):
        if self.attenuation_db_per_km <= 0:
            raise PlannerError("attenuation must be positive")
        if self.repetition_period <= 0:
            raise PlannerError("repetition period must be positive")
        if not 0 <= self.overhead_fraction < 1:
            raise PlannerError("overhead fraction outside [0, 1)")
        if self.herald_prob <= 0 or self.read_prob <= 0:
            raise PlannerError("baseline rates must be positive")


def degraded_g2(budget: NoiseBudget, added_db: float, t: float,
                herald_dilution: bool = True,
                include_decay: bool = True) -> float:
    """Cross-correlation after inserting loss in the device-to-combiner path.

    Signal and co-propagating leak scale with the transmission while the
    constant background does not, so the effective background per
    detected phonon grows by the inverse transmission; with
    `herald_dilution` the same ratio dilutes the heralds (false heralds
    carry no phonon correlation).
    """
    if added_db < 0:
        raise PlannerError("added loss must be non-negative")
    trans = 10.0 ** (-added_db / 10.0)
    t_eff = t if include_decay else 0.0
    scaled = replace(budget, n_bg=min(budget.n_bg / trans, 0.499))
    g = g2_cross(t_eff, scaled)
    if herald_dilution:
        f_true = 1.0 / (1.0 + budget.n_bg / trans)
        g = 1.0 + (g - 1.0) * f_true
    return g


def required_added_db(budget: NoiseBudget, g2_floor: float, t: float,
                      herald_dilution: bool = True,
                      include_decay: bool = True) -> float:
    """Loss that degrades the correlation exactly to `g2_floor` (bisection)."""
    base = degraded_g2(budget, 0.0, t, herald_dilution, include_decay)
    if base <= g2_floor:
        return 0.0
    lo, hi = 0.0, 60.0
    if degraded_g2(budget, hi, t, herald_dilution, include_decay) > g2_floor:
        raise PlannerError("floor not reachable within 60 dB")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if degraded_g2(budget, mid, t, herald_dilution, include_decay) > g2_floor:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass
class SeparationPlan:
    total_km: float
    arm_a_km: float
    arm_b_km: float
    arm_a_db: float
    arm_b_db: float
    g2_floor: float


def max_separation(link: LinkBudget, contrast_retention: float = 0.95) -> SeparationPlan:
    """Longest insertable fiber keeping the interference contrast target.

    The retention target fixes a common correlation floor relative to the
    limiting device (`1 + retention * (min baseline - 1)`); each arm then
    absorbs its own loss budget down to that floor.  An asymmetric pair
    therefore allows some fiber on the better arm even at full retention;
    a symmetric pair allows none.
    """
    if not 0 < contrast_retention <= 1:
        raise PlannerError("retention target must lie in (0, 1]")
    base_contrast = min(
        degraded_g2(link.budget_a, 0.0, link.tau, link.herald_dilution,
                    link.include_decay),
        degraded_g2(link.budget_b, 0.0, link.tau, link.herald_dilution,
                    link.include_decay)) - 1.0
    floor = 1.0 + contrast_retention * base_contrast
    db_a = required_added_db(link.budget_a, floor, link.tau,
                             link.herald_dilution, link.include_decay)
    db_b = required_added_db(link.budget_b, floor, link.tau,
                             link.herald_dilution, link.include_decay)
    if db_a == 0.0 and db_b == 0.0:
        return SeparationPlan(0.0, 0.0, 0.0, 0.0, 0.0, floor)
    per_km = link.attenuation_db_per_km
    return SeparationPlan(total_km=(db_a + db_b) / per_km,
                          arm_a_km=db_a / per_km, arm_b_km=db_b / per_km,
                          arm_a_db=db_a, arm_b_db=db_b, g2_floor=floor)


def split_separation(link: LinkBudget, separation_km: float,
                     contrast_retention: float = 0.95) -> SeparationPlan:
    """Allocate a given separation across the two arms.

    Minimizes the larger per-arm loss (which sets the coincidence rate)
    subject to each arm staying within its own contrast budget: equal
    split when possible, otherwise the tighter arm is capped at its
    budget and the remainder goes to the other.
    """
    plan = max_separation(link, contrast_retention)
    total_db = separation_km * link.attenuation_db_per_km
    if total_db > plan.arm_a_db + plan.arm_b_db + 1e-9:
        raise PlannerError(
            f"separation {separation_km:.0f} km exceeds the insertable "
            f"{plan.total_km:.0f} km at this retention target")
    half = total_db / 2.0
    db_a = min(half, plan.arm_a_db)
    db_b = total_db - db_a
    if db_b > plan.arm_b_db:
        db_b = plan.arm_b_db
        db_a = total_db - db_b
    per_km = link.attenuation_db_per_km
    return SeparationPlan(total_km=separation_km,
                          arm_a_km=db_a / per_km, arm_b_km=db_b / per_km,
                          arm_a_db=db_a, arm_b_db=db_b, g2_floor=plan.g2_floor)


# ---------------------------------------------------------------------------
# integration time


@dataclass
class IntegrationPlan:
    days: float
    trials: float
    coincidences: float
    witness_ml: float
    witness_offgrid: float          # symmetrized witness mass off its grid


def _projected_tally(link: LinkBudget, g2_floor: float, rate_scale: float,
                     n_trials: float) -> counting.CoincidenceTally:
    """Synthetic counting statistics of the degraded configuration.

    The fringe is taken at its working point: cross-detector pairs at the
    contrast ceiling, same-detector pairs at the corresponding minimum;
    singles follow the baseline herald/read rates scaled by the link
    transmission (paths matched to the worse arm), so coincidences carry
    its square automatically.
    """
    g_max = g2_floor
    # one contrast below the ceiling, g_max - (g2_floor - 1), is exactly 1:
    # with g2_floor > 1 both differences are representable, so both are exact
    g_min = 1.0
    n = float(n_trials)
    cp = 0.5 * link.herald_prob * rate_scale * n
    cr = 0.5 * link.read_prob * rate_scale * n
    coinc = [[0, 0], [0, 0]]
    for i in (1, 2):
        for j in (1, 2):
            g = g_max if i != j else g_min
            coinc[i - 1][j - 1] = int(round(g * cr * cp / n))
    return counting.CoincidenceTally(
        n_trials=int(n),
        pump_singles=(int(cp), int(cp)),
        read_singles=(int(cr), int(cr)),
        coincidences=(tuple(coinc[0]), tuple(coinc[1])),
    )


def integration_time(link: LinkBudget, separation_km: float,
                     sigma_clearance: float = 3.0,
                     contrast_retention: float = 0.95) -> IntegrationPlan:
    """Measurement time for the witness to clear classicality by `sigma_clearance`.

    Both arms are matched to the worse transmission, so singles scale
    with it and coincidences with its square; the needed trial count is
    solved on the projected counting statistics with the same witness
    machinery used for real data.
    """
    plan = split_separation(link, separation_km, contrast_retention)
    worst_db = max(plan.arm_a_db, plan.arm_b_db)
    rate_scale = 10.0 ** (-worst_db / 10.0)

    def clearance(n_trials):
        t = _projected_tally(link, plan.g2_floor, rate_scale, n_trials)
        # the tally is mirror-symmetric in the two heralds, so their
        # posteriors are equal bit for bit
        d = counting.witness_distribution(t, 1)
        sym = counting.symmetrize(d, d)
        sigma_up = max(sym.upper - sym.ml_value, 1e-6)
        return (1.0 - sym.ml_value) / sigma_up, sym, t

    # sigma scales ~ 1/sqrt(N): bracket then bisect in log space
    n0 = 1e9 / rate_scale
    c0, _, _ = clearance(n0)
    n_guess = n0 * (sigma_clearance / max(c0, 1e-3)) ** 2
    lo, hi = n_guess / 16.0, n_guess * 16.0
    at_lo = at_hi = None
    for _ in range(12):
        mid = math.sqrt(lo * hi)
        result = clearance(mid)
        if result[0] < sigma_clearance:
            lo, at_lo = mid, result
        else:
            hi, at_hi = mid, result
    # a bracket end the bisection never moved is solved once, here
    at_lo = at_lo or clearance(lo)
    at_hi = at_hi or clearance(hi)
    if at_lo[0] >= sigma_clearance or at_hi[0] < sigma_clearance:
        raise PlannerError(f"{sigma_clearance} sigma clearance lies outside "
                           f"the searched {lo:.3g}-{hi:.3g} trials")
    n_trials = hi
    _, sym, t = at_hi
    coinc = sum(t.coincidences[i][j] for i in (0, 1) for j in (0, 1))
    seconds = n_trials * link.repetition_period / (1.0 - link.overhead_fraction)
    return IntegrationPlan(days=seconds / 86400.0, trials=n_trials,
                           coincidences=coinc, witness_ml=sym.ml_value,
                           witness_offgrid=sym.below + sym.above)
