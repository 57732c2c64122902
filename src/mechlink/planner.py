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
            raise PlannerError("chips must be at least 2")
        if self.devices_per_chip < 1:
            raise PlannerError("devices_per_chip must be at least 1")
        for name in ("sigma_nm", "offsets_nm"):
            if len(getattr(self, name)) != self.chips:
                raise PlannerError(f"{name} must be one value per chip")
        if any(s <= 0 for s in self.sigma_nm):
            raise PlannerError("sigma_nm must be positive")
        for name in ("window_mhz", "carrier_nm"):
            if getattr(self, name) <= 0:
                raise PlannerError(f"{name} must be positive")

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
    mc_reps: int                    # Monte Carlo repetitions drawn


def _pair_match_probability(model: YieldModel, chip_a: int = 0,
                            chip_b: int = 1) -> float:
    """P(|X - Y| < window) for one cross-chip device pair."""
    mu = model.offsets_nm[chip_a] - model.offsets_nm[chip_b]
    s = math.hypot(model.sigma_nm[chip_a], model.sigma_nm[chip_b])
    w = model.window_nm

    def ndtr(z):
        return 0.5 * math.erfc(-z / math.sqrt(2.0))

    return ndtr((w - mu) / s) - ndtr((-w - mu) / s)


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
                         pair_probability=p_tuple, mc_reps=mc_reps)


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
    contrast_retention: float = 0.95        # kept share of the weaker contrast
    sigma_clearance: float = 3.0            # witness clearance to plan for

    def __post_init__(self):
        for name in ("attenuation_db_per_km", "repetition_period", "herald_prob",
                     "read_prob", "sigma_clearance"):
            if getattr(self, name) <= 0:
                raise PlannerError(f"{name} must be positive")
        if self.tau < 0:
            raise PlannerError("tau must be non-negative")
        if not 0 <= self.overhead_fraction < 1:
            raise PlannerError("overhead_fraction must be in [0, 1)")
        if not 0 < self.contrast_retention <= 1:
            raise PlannerError("contrast_retention must be in (0, 1]")


def degraded_g2(budget: NoiseBudget, added_db: float, t: float) -> float:
    """Cross-correlation after inserting loss in the device-to-combiner path.

    Signal and co-propagating leak scale with the transmission while the
    constant background does not, so the effective background per
    detected phonon grows by the inverse transmission, and the same ratio
    dilutes the heralds (false heralds carry no phonon correlation).
    """
    if added_db < 0:
        raise PlannerError("added loss must be non-negative")
    trans = 10.0 ** (-added_db / 10.0)
    scaled = replace(budget, n_bg=budget.n_bg / trans)
    f_true = 1.0 / (1.0 + budget.n_bg / trans)
    return 1.0 + (g2_cross(t, scaled) - 1.0) * f_true


def required_added_db(budget: NoiseBudget, g2_floor: float, t: float) -> float:
    """Loss that degrades the correlation exactly to `g2_floor`: the scaled
    background x = n_bg / T at which (D0 + x)(1 + x) is
    e^{-decay t} / (g2_floor - 1), D0 = n_th + p_pump e^{-decay t} + n_leak
    (the quadratic's root in the form that does not cancel).  x >= 0.5 raises.
    """
    if degraded_g2(budget, 0.0, t) <= g2_floor:
        return 0.0
    if budget.n_bg == 0.0 or g2_floor <= 1.0:
        raise PlannerError("floor not reachable by added loss")
    e = math.exp(-budget.decay * t)
    d0 = budget.n_th + budget.p_pump * e + budget.n_leak
    excess = e / (g2_floor - 1.0) - d0
    x = 2.0 * excess / (1.0 + d0 + math.sqrt((1.0 + d0) ** 2 + 4.0 * excess))
    if not x < 0.5:
        raise PlannerError(f"floor {g2_floor:.6g} needs n_bg/T = {x:.3g}, "
                           f"outside the validity range [0, 0.5)")
    return 10.0 * math.log10(x / budget.n_bg)


@dataclass
class SeparationPlan:
    total_km: float
    arm_a_km: float
    arm_b_km: float
    arm_a_db: float
    arm_b_db: float
    g2_floor: float


def max_separation(link: LinkBudget) -> SeparationPlan:
    """Longest insertable fiber keeping the interference contrast target.

    The link's retention target fixes a common correlation floor relative
    to the limiting device (`1 + retention * (min baseline - 1)`); each arm then
    absorbs its own loss budget down to that floor.  An asymmetric pair
    therefore allows some fiber on the better arm even at full retention;
    a symmetric pair allows none.
    """
    base_contrast = min(degraded_g2(link.budget_a, 0.0, link.tau),
                        degraded_g2(link.budget_b, 0.0, link.tau)) - 1.0
    floor = 1.0 + link.contrast_retention * base_contrast
    db_a = required_added_db(link.budget_a, floor, link.tau)
    db_b = required_added_db(link.budget_b, floor, link.tau)
    per_km = link.attenuation_db_per_km
    return SeparationPlan(total_km=(db_a + db_b) / per_km,
                          arm_a_km=db_a / per_km, arm_b_km=db_b / per_km,
                          arm_a_db=db_a, arm_b_db=db_b, g2_floor=floor)


def split_separation(link: LinkBudget, separation_km: float) -> SeparationPlan:
    """Allocate a given separation across the two arms.

    Minimizes the larger per-arm loss (which sets the coincidence rate)
    subject to each arm staying within its own contrast budget: equal
    split when possible, otherwise the tighter arm is capped at its
    budget and the remainder goes to the other.
    """
    plan = max_separation(link)
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
    coincidences: float             # expected, summed over the four cells
    witness_median: float
    witness_offgrid: float          # symmetrized witness mass off its band
    same_detector: float            # expected coincidences per same-detector cell
    log_slope: float                # final secant slope of the log clearance in log N


# The integration-time solve starts where the weakest (same-detector) cell
# expects this many coincidences: the witness posterior is already narrow
# there, and the clearance grows as sqrt(N)
START_COINCIDENCES = 100.0
# Width in log N to which the solve closes the bracket of its root
LOG_N_TOLERANCE = 1e-6
# How far from the start, in log N, the bracket may be widened
MAX_LOG_REACH = math.log(1e6)


def _projected_tally(link: LinkBudget, g2_floor: float, rate_scale: float,
                     n_trials: float) -> counting.CoincidenceTally:
    """Expected counting statistics of the degraded configuration.

    The fringe is taken at its working point: cross-detector pairs at the
    contrast ceiling, same-detector pairs at the corresponding minimum;
    singles follow the baseline herald/read rates scaled by the link
    transmission (paths matched to the worse arm), so coincidences carry
    its square automatically.  Every count is its real expected value,
    unrounded, so the witness posterior moves smoothly with `n_trials`;
    the tally is mirror-symmetric in the two heralds.
    """
    g_max = g2_floor
    # one contrast below the ceiling, g_max - (g2_floor - 1), is exactly 1:
    # with g2_floor > 1 both differences are representable, so both are exact
    g_min = 1.0
    n = float(n_trials)
    cp = 0.5 * link.herald_prob * rate_scale * n
    cr = 0.5 * link.read_prob * rate_scale * n
    coinc = [[(g_max if i != j else g_min) * cr * cp / n for j in (1, 2)]
             for i in (1, 2)]
    return counting.CoincidenceTally(
        n_trials=n,
        pump_singles=(cp, cp),
        read_singles=(cr, cr),
        coincidences=(tuple(coinc[0]), tuple(coinc[1])),
    )


def _clearance(link: LinkBudget, g2_floor: float, rate_scale: float,
               n_trials: float) -> tuple:
    """(CLASSICALITY_THRESHOLD - median) / (84th percentile - median) of the
    projected witness.

    Returns the clearance with the symmetrized posterior and the tally.
    """
    t = _projected_tally(link, g2_floor, rate_scale, n_trials)
    # the tally is mirror-symmetric in the two heralds, so their
    # posteriors are equal bit for bit
    d = counting.witness_distribution(t, 1)
    sym = counting.symmetrize(d, d)
    median = sym.median
    return (counting.CLASSICALITY_THRESHOLD - median) / (sym.upper - median), sym, t


def integration_time(link: LinkBudget, separation_km: float,
                     start: IntegrationPlan | None = None) -> IntegrationPlan:
    """Measurement time for the witness to clear classicality by the link's
    `sigma_clearance`.

    Both arms are matched to the worse transmission, so singles scale
    with it and coincidences with its square.  The trial count N solves
    log(clearance / sigma_clearance) = 0 in log N on the projected
    counting statistics, with the witness located by its posterior
    median.  The solve starts where the same-detector cell expects
    START_COINCIDENCES coincidences and takes one log-log secant step of
    slope 1/2 (clearance ~ sqrt N).  Given the plan of another separation
    of the same link as `start`, it starts instead where the cell expects
    that plan's same-detector coincidences, at which the posterior is
    nearly that plan's, and steps by that plan's final secant slope, half
    a LOG_N_TOLERANCE past the root it predicts.  While the sign does not
    change, the step doubles, within MAX_LOG_REACH of the start.  Illinois
    regula falsi (`stats.regula_falsi`) then closes the bracket to
    LOG_N_TOLERANCE, and the plan is read at its cleared end.
    """
    plan = split_separation(link, separation_km)
    worst_db = max(plan.arm_a_db, plan.arm_b_db)
    rate_scale = 10.0 ** (-worst_db / 10.0)
    target = math.log(link.sigma_clearance)

    def probe(log_n):
        c, sym, t = _clearance(link, plan.g2_floor, rate_scale, math.exp(log_n))
        return log_n, math.log(c) - target if c > 0.0 else -math.inf, sym, t

    warm = start is not None and 0.0 < start.log_slope < math.inf
    # the same-detector cell expects g_min cr cp / N = h r s^2 N / 4
    origin = math.log(4.0 * (start.same_detector if warm else START_COINCIDENCES)
                      / (link.herald_prob * link.read_prob * rate_scale**2))
    near = probe(origin)
    if warm:
        step = (-near[1] / start.log_slope
                + math.copysign(0.5 * LOG_N_TOLERANCE, -near[1]))
    else:
        step = math.copysign(max(2.0 * abs(near[1]), LOG_N_TOLERANCE), -near[1])
    while True:
        log_n = min(max(near[0] + step, origin - MAX_LOG_REACH),
                    origin + MAX_LOG_REACH)
        if log_n == near[0]:
            raise PlannerError(
                f"{link.sigma_clearance} sigma clearance lies outside the searched "
                f"{math.exp(origin - MAX_LOG_REACH):.3g}-"
                f"{math.exp(origin + MAX_LOG_REACH):.3g} trials")
        far = probe(log_n)
        if (far[1] < 0.0) != (near[1] < 0.0):
            break
        near, step = far, 2.0 * step
    # the clearance rises with N: below the target at the lower end, cleared
    # at the upper.  The ends are popped into the call, so only the current
    # bracket's posteriors stay alive
    ends = sorted((near, far), key=lambda p: p[0])
    del near, far
    lo, (log_hi, f_hi, sym, t) = counting.regula_falsi(
        probe, ends.pop(0), ends.pop(), lambda lo, hi: hi - lo <= LOG_N_TOLERANCE)
    # a probe that hit the root exactly leaves no secant
    slope = ((f_hi - lo[1]) / (log_hi - lo[0]) if log_hi > lo[0] else math.nan)
    del lo
    coinc = sum(t.coincidences[i][j] for i in (0, 1) for j in (0, 1))
    seconds = t.n_trials * link.repetition_period / (1.0 - link.overhead_fraction)
    return IntegrationPlan(days=seconds / 86400.0, trials=t.n_trials,
                           coincidences=coinc, witness_median=sym.median,
                           witness_offgrid=sym.below + sym.above,
                           same_detector=t.coincidences[0][0], log_slope=slope)
