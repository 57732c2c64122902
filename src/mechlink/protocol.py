"""The three-step heralding protocol, end to end.

Pump stage: each device is pair-pumped (mechanical mode with a fresh
Stokes optical mode), the optical modes suffer path loss, meet on the
combining beamsplitter and hit the two threshold detectors.  A click
heralds a shared mechanical excitation.

Delay: mechanical decay, transient-bath heating and the relative phase
accumulated by the frequency difference of the two oscillators.  Per
mode this is one thermal attenuator.

Read stage: a partial state swap converts phonons into anti-Stokes
photons, which interfere on the same combiner and are detected.  A swap
with a vacuum read mode, traced over the mechanics, is exactly a pure
loss of the phonon mode, and arm B's read photon carries the drive phase
phi0 + delta_phi: a rotation of mech B, then the pump's detection chain.

Every channel above is Gaussian and a threshold click is "1 - vacuum
projection", so states are short signed sums of zero-mean Gaussian
terms (`GaussianState`) and nothing is truncated.  With hbar = 2 the
vacuum covariance is the identity; a vacuum projection on k modes
weighs a term by 2^k / sqrt(det(sigma_SS + I)) and leaves the Schur
complement on the other modes (Weedbrook et al., RMP 84, 621 (2012)).
The four joint click outcomes follow by inclusion-exclusion over the
port vacuum projections (Quesada, Arrazola & Killoran, PRA 98, 062322
(2018)), so a click-conditioned state has at most four terms per input
term.  The one non-Gaussian step is a mixture over the relative phase
of the two devices: residual lock noise and, with serrodyne
compensation off, the distinguishability of the pump and read photons
each blur that one angle, so `build_trial_model` applies them as one
relative-phase twirl whose variance is their sum, evaluated by a
periodic trapezoid rule of ROTATION_NODES nodes.

Mode layout inside a stage: [mech A, mech B, optical A/port 1,
optical B/port 2].  After the combiner the optical slots hold the
detector port modes.  In the read stage the mechanical slots carry the
read photons, and after its combiner the port modes.  False positives
(leaked drive light, stray background, electrical darks) are modeled as
independent per-window Bernoulli processes layered onto the exact
quantum click probabilities.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .devices import InterferometerConfig, ProtocolConfig
from .noise import HeatingParams, driven_occupation

MA, MB, OA, OB = 0, 1, 2, 3

# nodes of the trapezoid rule over a rotation angle; doubling them moves
# no outcome-table entry by more than 1e-12
ROTATION_NODES = 32

# most negative entry and largest normalization deficit a click table
# may carry from floating-point cancellation
_TABLE_TOL = 1e-12


class ProtocolError(ValueError):
    pass


def outcome_index(click_1: bool, click_2: bool) -> int:
    return int(click_1) + 2 * int(click_2)


# a trial's outcome code is pump + 4 * read, both in outcome_index order:
# bit s of code c is the click in slot s = 2 * window + detector - 1, with
# window 0 the pump and 1 the read
CODE_SLOTS = (np.arange(16)[:, None] >> np.arange(4)) & 1 == 1
_COINCIDENCE_SLOTS = (CODE_SLOTS[:, 2:, None] & CODE_SLOTS[:, None, :2]).reshape(16, 4)


def click_totals(per_code) -> tuple:
    """(singles, coincidences) of 16 per-code counts or probabilities.

    singles[s] totals the codes with a click in slot s; coincidences[i, j]
    those with clicks at read detector i + 1 and pump detector j + 1.
    """
    per_code = np.asarray(per_code)
    return per_code @ CODE_SLOTS, (per_code @ _COINCIDENCE_SLOTS).reshape(2, 2)


# ---------------------------------------------------------------------------
# Gaussian states and channels


@dataclass(frozen=True)
class GaussianState:
    """rho = sum_t weight[t] rho(cov[t]): a signed sum of zero-mean Gaussians.

    Quadratures are ordered (x0, p0, x1, p1, ...) with hbar = 2.  The
    weights carry the trace, so a click-conditioned state keeps its
    outcome probability as its trace.
    """

    weight: np.ndarray      # (terms,)
    cov: np.ndarray         # (terms, 2 * modes, 2 * modes)

    @property
    def n_modes(self) -> int:
        return self.cov.shape[-1] // 2

    def trace(self) -> float:
        return float(self.weight.sum())


def _axes(modes) -> np.ndarray:
    return np.array([2 * m + q for m in modes for q in (0, 1)], dtype=int)


def _thermal(occupations) -> GaussianState:
    diag = np.repeat(2.0 * np.asarray(occupations, dtype=float) + 1.0, 2)
    return GaussianState(np.ones(1), np.diag(diag)[None])


def _linear(state: GaussianState, modes, a, b=None) -> GaussianState:
    """Heisenberg map a_k -> sum_l A_kl a_l + B_kl a_l^dag on `modes`."""
    a = np.asarray(a, dtype=complex)
    b = np.zeros_like(a) if b is None else np.asarray(b, dtype=complex)
    local = np.empty((2 * len(a), 2 * len(a)))
    local[0::2, 0::2] = (a + b).real
    local[0::2, 1::2] = -(a - b).imag
    local[1::2, 0::2] = (a + b).imag
    local[1::2, 1::2] = (a - b).real
    s = np.eye(2 * state.n_modes)
    ax = _axes(modes)
    s[np.ix_(ax, ax)] = local
    return GaussianState(state.weight, s @ state.cov @ s.T)


def _two_mode_squeeze(state, mode_a, mode_b, p_excite, phase=0.0):
    """exp(xi a^dag b^dag - xi* a b), xi = r e^{i phase}, tanh^2 r = p_excite:
    a -> cosh r a + e^{i phase} sinh r b^dag."""
    r = math.atanh(math.sqrt(p_excite))
    s = cmath.exp(1j * phase) * math.sinh(r)
    return _linear(state, (mode_a, mode_b), math.cosh(r) * np.eye(2),
                   [[0.0, s], [s, 0.0]])


def _beamsplitter(state, mode_a, mode_b, transmittance):
    """a -> sqrt(T) a + sqrt(1-T) b, b -> sqrt(T) b - sqrt(1-T) a."""
    t, r = math.sqrt(transmittance), math.sqrt(1.0 - transmittance)
    return _linear(state, (mode_a, mode_b), [[t, r], [-r, t]])


def _rotate(state, mode, phi):
    """exp(i phi n): a -> e^{i phi} a."""
    return _linear(state, (mode,), [[cmath.exp(1j * phi)]])


def _attenuate(state: GaussianState, mode: int, eta: float,
               added: float = 0.0) -> GaussianState:
    """Thermal attenuator <n> -> eta <n> + added; pure loss when added = 0."""
    ax = _axes((mode,))
    scale = np.ones(2 * state.n_modes)
    scale[ax] = math.sqrt(eta)
    cov = state.cov * np.outer(scale, scale)
    cov[:, ax, ax] += 1.0 - eta + 2.0 * added
    return GaussianState(state.weight, cov)


def _rotation_twirl(state: GaussianState, mode: int, sigma: float) -> GaussianState:
    """Average of exp(i theta n) on `mode` over theta ~ N(0, sigma^2).

    Periodic trapezoid rule on ROTATION_NODES angles.  The node weights
    carry the wrapped-normal Fourier coefficients exp(-(sigma m)^2 / 2)
    for |m| < ROTATION_NODES / 2, so every Fourier mode of the integrand
    below that order is integrated exactly, at any width; sigma = inf is
    the uniform phase average.
    """
    k = ROTATION_NODES
    theta = 2.0 * math.pi * np.arange(k) / k
    m = np.arange(1, k // 2)
    w = (1.0 + 2.0 * np.cos(np.outer(theta, m)) @ np.exp(-0.5 * (sigma * m) ** 2)) / k
    n = 2 * state.n_modes
    x, p = _axes((mode,))
    rot = np.tile(np.eye(n), (k, 1, 1))
    rot[:, x, x] = rot[:, p, p] = np.cos(theta)
    rot[:, p, x] = np.sin(theta)
    rot[:, x, p] = -np.sin(theta)
    cov = rot[:, None] @ state.cov[None] @ rot[:, None].swapaxes(-1, -2)
    return GaussianState(np.outer(w, state.weight).ravel(), cov.reshape(-1, n, n))


def _vacuum_projection(state: GaussianState, measured, keep) -> GaussianState:
    """<0|rho|0> on the `measured` modes; modes in neither list are traced out.

    Each term's weight gains 2^k / sqrt(det(sigma_SS + I)) and the kept
    block becomes sigma_KK - sigma_KS (sigma_SS + I)^-1 sigma_SK.
    """
    k_ax = _axes(keep)
    cov_kk = state.cov[:, k_ax[:, None], k_ax]
    if not measured:
        return GaussianState(state.weight, cov_kk)
    s_ax = _axes(measured)
    c_ss = state.cov[:, s_ax[:, None], s_ax] + np.eye(len(s_ax))
    c_ks = state.cov[:, k_ax[:, None], s_ax]
    weight = state.weight * 2.0 ** len(measured) / np.sqrt(np.linalg.det(c_ss))
    if keep:
        cov_kk = cov_kk - c_ks @ np.linalg.solve(c_ss, c_ks.swapaxes(-1, -2))
    return GaussianState(weight, cov_kk)


def _checked_table(probs: np.ndarray, total: float, what: str) -> np.ndarray:
    """`probs`, once their inclusion-exclusion rounding is measured small.

    A most negative entry below -_TABLE_TOL or a sum further than
    _TABLE_TOL from `total` raises.  Entries inside [-_TABLE_TOL, 0) are
    probabilities that vanish exactly (vacuum, perfect interference) and
    carry only the rounding of their cancelling terms; they come back as
    0.  Nothing is renormalized.
    """
    lowest = float(probs.min())
    deficit = float(probs.sum()) - total
    if lowest < -_TABLE_TOL or abs(deficit) > _TABLE_TOL:
        raise ProtocolError(f"{what}: most negative entry {lowest:.3e}, "
                            f"normalization deficit {deficit:.3e}")
    return np.maximum(probs, 0.0)


def _click_outcomes(state: GaussianState, port1: int, port2: int):
    """Exact joint threshold-click distribution on two ports.

    Returns (probs[4], states[4]) in outcome_index order; each state is
    the unnormalized remainder on the other modes, its trace the outcome
    probability.  A click is 1 - vacuum projection, so outcome (c1, c2)
    sums (-1)^|S| V(unclicked ports + S) over the subsets S of its
    clicked ports, V being the vacuum projection.
    """
    ports = (port1, port2)
    keep = tuple(m for m in range(state.n_modes) if m not in ports)
    vac = [_vacuum_projection(state, tuple(p for i, p in enumerate(ports) if mask >> i & 1),
                              keep)
           for mask in range(4)]
    states = []
    for idx in range(4):            # bit i of idx: port i+1 clicked
        parts = [(-1.0 if bin(sub).count("1") % 2 else 1.0, vac[(3 & ~idx) | sub])
                 for sub in range(4) if sub & idx == sub]
        states.append(GaussianState(
            np.concatenate([sign * v.weight for sign, v in parts]),
            np.concatenate([v.cov for _, v in parts])))
    probs = np.array([s.trace() for s in states])
    return _checked_table(probs, state.trace(), "click table"), states


def _detect(state: GaussianState, cfg: ProtocolConfig, ports, arm_eta, detector_eta):
    """Each arm's loss, the combiner and each detector's efficiency on the
    two `ports`: the pre-measurement state, then `_click_outcomes` of it."""
    for port, eta in zip(ports, arm_eta):
        state = _attenuate(state, port, eta)
    state = _beamsplitter(state, *ports, cfg.interferometer.combiner_transmittance)
    for port, eta in zip(ports, detector_eta):
        state = _attenuate(state, port, eta)
    return (state, *_click_outcomes(state, *ports))


# ---------------------------------------------------------------------------
# photon distinguishability


def envelope_overlap(delta_omega: float, envelope_sigma: float) -> float:
    """Magnitude of the overlap of two identical envelopes detuned by delta_omega.

    For a Gaussian intensity envelope of rms duration sigma_t the overlap
    integral |∫ |f(t)|^2 e^{i Δ t} dt| evaluates to exp(-(Δ sigma_t)^2 / 2).
    """
    return math.exp(-0.5 * (delta_omega * envelope_sigma) ** 2)


def distinguishability_variance(interferometer: InterferometerConfig) -> float:
    """Variance of the relative phase that tells the two devices' photons
    apart in one pulse window.

    With serrodyne compensation on, the drives make the photons of both
    devices degenerate: 0.  With it off they are detuned by the full
    mechanical frequency difference, and a Gaussian relative phase of
    variance (delta_omega_m sigma_env)^2 damps their exchange coherence
    to exactly `envelope_overlap`, exp(-variance / 2).
    """
    if interferometer.serrodyne:
        return 0.0
    return (interferometer.delta_omega_m * interferometer.envelope_sigma_ns * 1e-9) ** 2


# ---------------------------------------------------------------------------
# pump stage


@dataclass
class PumpStageResult:
    state: GaussianState                       # [mA, mB, port1, port2], pre-measurement
    quantum_probs: np.ndarray                  # P of (c1, c2) outcomes, index outcome_index
    mech_given: list                           # per outcome, the unnormalized mech state


def read_detection_scale(cfg: ProtocolConfig, device: int, detector: int) -> float:
    """Probability that one phonon of `device` (0 = A) clicks `detector`
    (0 = detector 1) in the read window, interference aside: the state
    swap, the path, the combiner port and the read-window efficiency."""
    intf, dev = cfg.interferometer, cfg.devices()[device]
    t_comb = intf.combiner_transmittance
    port = t_comb if device == detector else 1.0 - t_comb
    return dev.p_read * dev.eta_path * port * cfg.detectors.read_eta(detector)


def _leak_means(cfg: ProtocolConfig) -> tuple:
    """Poisson leak means per (window, detector) from the per-device rates.

    The per-detected-phonon leak rate of each device is referred to an
    absolute per-trial mean through that device's single-phonon read
    detection scale; pump-window leakage is scaled by the pulse-energy
    ratio.
    """
    read = [sum(dev.n_leak * read_detection_scale(cfg, i, j)
                for i, dev in enumerate(cfg.devices())) for j in range(2)]
    pump = [cfg.detectors.leak_pump_scale * m for m in read]
    return tuple(pump), tuple(read)


def false_click_probs(cfg: ProtocolConfig) -> tuple:
    """(pump, read) per-detector false-click probabilities per window."""
    darks = (cfg.detectors.p_dark_pump, cfg.detectors.p_dark_read)
    return tuple(tuple(1.0 - (1.0 - d) * math.exp(-m) for d, m in zip(dark, leak))
                 for dark, leak in zip(darks, _leak_means(cfg)))


def pump_stage(cfg: ProtocolConfig) -> PumpStageResult:
    """Exact pre-measurement state and click analysis of the pump window.

    The photons' distinguishability does not change this click table; it
    is part of the relative-phase twirl of `build_trial_model`.
    """
    intf = cfg.interferometer
    dev_a, dev_b = cfg.devices()
    state = _thermal([dev_a.start_occupation, dev_b.start_occupation, 0.0, 0.0])
    state = _two_mode_squeeze(state, MA, OA, dev_a.p_pump)
    state = _two_mode_squeeze(state, MB, OB, dev_b.p_pump,
                              phase=intf.phi0)
    state, probs, mech = _detect(state, cfg, (OA, OB),
                                 (dev_a.eta_path, dev_b.eta_path), cfg.detectors.eta)
    return PumpStageResult(state=state, quantum_probs=probs, mech_given=mech)


def _blocked(cfg: ProtocolConfig, arm: str) -> ProtocolConfig:
    """`cfg` with the path of `arm` blocked, so the other device runs alone."""
    key = f"device_{arm.lower()}"
    return replace(cfg, **{key: replace(getattr(cfg, key), eta_path=0.0)})


# ---------------------------------------------------------------------------
# delay evolution


def evolve_delay(state: GaussianState, tau: float,
                 cfg: ProtocolConfig) -> GaussianState:
    """Decay, transient-bath heating and relative phase over the delay.

    Each mechanical mode goes through its exact thermal attenuator: eta =
    exp(-gamma tau) and N the occupation the transient bath adds from
    zero, so that a mean occupation n goes to eta n + N, the closed-form
    rate-equation value.  The relative phase delta_omega_m * tau is
    applied to mechanical mode B.
    """
    if tau < 0:
        raise ProtocolError("delay must be non-negative")
    if tau == 0:
        return state
    for mode, dev in zip((MA, MB), cfg.devices()):
        heat = HeatingParams(decay=dev.gamma_decay, bath_gamma=dev.bath_gamma,
                             bath_k=dev.bath_k, n_init=dev.n_init)
        state = _attenuate(state, mode, math.exp(-dev.gamma_decay * tau),
                           float(driven_occupation(tau, heat)))
    return _rotate(state, MB, cfg.interferometer.delta_omega_m * tau)


# ---------------------------------------------------------------------------
# read stage


def readout_stage(mech_state: GaussianState, cfg: ProtocolConfig) -> np.ndarray:
    """Partial state swap, interference and detection of the read window:
    the swap is a loss of p_read on each phonon mode, and arm B's read
    drive rotates mech B by phi0 + delta_phi (see the module docstring).

    Returns the joint read-click outcome probabilities, in outcome_index
    order and without false clicks; they carry the trace of `mech_state`.
    Photon distinguishability and lock noise enter as the relative-phase
    twirl that `build_trial_model` applies to `mech_state`.
    """
    intf = cfg.interferometer
    dev_a, dev_b = cfg.devices()
    state = _rotate(mech_state, MB, intf.phi0 + intf.delta_phi)
    _, probs, _ = _detect(state, cfg, (MA, MB),
                          (dev_a.p_read * dev_a.eta_path, dev_b.p_read * dev_b.eta_path),
                          (cfg.detectors.read_eta(0), cfg.detectors.read_eta(1)))
    return probs


# ---------------------------------------------------------------------------
# outcome algebra


def _false_click_matrix(false_p: tuple) -> np.ndarray:
    """M[q, o] = P(observed outcome o | quantum outcome q), independent falses."""
    per_detector = [np.array([[1.0 - f, f], [0.0, 1.0]]) for f in false_p]
    # outcome_index = c1 + 2 c2: detector 2 is the major index
    return np.kron(per_detector[1], per_detector[0])


# ---------------------------------------------------------------------------
# exact single-device correlations


def single_device_g2_exact(cfg: ProtocolConfig, device: str) -> float:
    """Exact pump/read cross-correlation of one device, other arm blocked.

    Evaluated at detector 2 (the convention for single-device runs) and
    including stimulated-scattering enhancement that the closed-form
    low-temperature expression neglects; min(g2_A, g2_B) - 1 is the
    rigorous ceiling on the two-device interference contrast.
    """
    if device not in ("A", "B"):
        raise ProtocolError("device must be 'A' or 'B'")
    return build_trial_model(_blocked(cfg, "B" if device == "A" else "A")).g2_exact(2, 2)


def exact_visibility_ceiling(cfg: ProtocolConfig) -> float:
    """Visibility bound C/(C+2) from the exact single-device correlations."""
    c = min(single_device_g2_exact(cfg, "A"), single_device_g2_exact(cfg, "B")) - 1.0
    if c <= 0:
        return 0.0
    return c / (c + 2.0)


# ---------------------------------------------------------------------------
# per-trial outcome model


@dataclass
class TrialModel:
    """Exact per-trial outcome distribution and derived statistics."""

    joint: np.ndarray            # P(pump outcome, read outcome), 4x4
    config: ProtocolConfig

    # nothing is truncated; perfbench/tracer.py reads this Fock-era field
    truncation_budget = 0.0

    def pump_click_prob(self, detector: int) -> float:
        return float(click_totals(self.joint.T.ravel())[0][detector - 1])

    def read_click_prob(self, detector: int) -> float:
        return float(click_totals(self.joint.T.ravel())[0][detector + 1])

    def coincidence_prob(self, read_det: int, pump_det: int) -> float:
        return float(click_totals(self.joint.T.ravel())[1][read_det - 1, pump_det - 1])

    def herald_prob(self) -> float:
        return float(self.joint[1:, :].sum())

    def g2_exact(self, read_det: int, pump_det: int) -> float:
        """Normalized read/pump coincidence; a singles probability within the
        tables' rounding (`_TABLE_TOL`) of zero raises."""
        pc = self.coincidence_prob(read_det, pump_det)
        pp = self.pump_click_prob(pump_det)
        pr = self.read_click_prob(read_det)
        if pp <= _TABLE_TOL or pr <= _TABLE_TOL:
            raise ProtocolError("zero singles probability")
        return pc / (pp * pr)

    def exact_witness(self, detector: int) -> float:
        """Moment-ratio witness <nA nB> / |<a_A+ a_B>|^2 of the
        intensity-weighted herald after the delay; values below 1 certify
        non-separability for Gaussian-input protocols."""
        moments = witness_moments(self.config)
        if detector not in moments:
            raise ProtocolError("zero-intensity herald mode")
        num, coh2 = moments[detector]
        if coh2 <= 1e-12:
            raise ProtocolError("witness undefined (no coherence)")
        return float(num / coh2)


def _moment(state: GaussianState, ops) -> complex:
    """Tr[rho O_1 ... O_k] for ladder operators O = (mode, dagger).

    Isserlis' theorem on each zero-mean term: the sum over pairings of
    the ordered two-point functions <a_k^dag a_l>, <a_k a_l> and their
    conjugates, read off the covariance.
    """
    cov = state.cov
    x, p = cov[:, 0::2, 0::2], cov[:, 1::2, 1::2]
    xp, px = cov[:, 0::2, 1::2], cov[:, 1::2, 0::2]
    n = 0.25 * (x + p + 1j * (xp - px)) - 0.5 * np.eye(state.n_modes)  # <a_k^dag a_l>
    m = 0.25 * (x - p + 1j * (xp + px))                                 # <a_k a_l>

    def pair(u, v):
        (k, u_dag), (l, v_dag) = u, v
        if u_dag and v_dag:
            return m[:, k, l].conj()
        if u_dag:
            return n[:, k, l]
        if v_dag:
            return n[:, l, k] + (k == l)
        return m[:, k, l]

    def wick(ops):
        if not ops:
            return np.ones(len(state.weight))
        return sum(pair(ops[0], ops[i]) * wick(ops[1:i] + ops[i + 1:])
                   for i in range(1, len(ops)))

    return complex(state.weight @ wick(tuple(ops)))


def build_trial_model(cfg: ProtocolConfig) -> TrialModel:
    """Assemble the exact 4x4 observed-outcome table for one setting.

    Three independent normal angles blur the relative phase of the two
    devices, and nothing else:
    - the lock offset theta ~ N(0, sigma^2), shared by the pump imprint
      and the read drive.  Each device's optical state after the pump is
      thermal and phase-invariant, so theta leaves the pump click table
      alone and acts as a rotation of mech B in each window: 2 theta.
    - with serrodyne off, the pump photons' relative phase, of variance
      sigma_d^2 (`distinguishability_variance`), on optical A.  The
      two-mode squeeze is invariant under R_mA(t) R_oA(-t), so it acts
      as a rotation of mech A.
    - the read photons' relative phase, of the same variance, on read
      photon A.  That photon is mech A through a pure loss
      (`readout_stage`), so it acts as a rotation of mech A.
    The combiner, the losses, the vacuum projections and the delay are
    blind to a common phase, and independent normal angles add their
    variances (Mardia & Jupp, Directional Statistics, 2000).  So the
    average is exactly one relative-phase twirl of variance
    sigma_d^2 + (2 sigma)^2 + sigma_d^2 on each click-conditioned
    mechanical state.  Each twirled state goes through the delay and the
    read stage unnormalized, so the read table row it yields is already
    P(pump outcome, read outcome).
    """
    intf = cfg.interferometer
    twirl_sigma = math.sqrt(2.0 * distinguishability_variance(intf)
                            + (2.0 * intf.phase_jitter_sigma) ** 2)

    pump = pump_stage(cfg)
    quantum = np.zeros((4, 4))       # P(pump outcome, read outcome), no falses
    for q_idx, mech in enumerate(pump.mech_given):
        if twirl_sigma > 0:
            mech = _rotation_twirl(mech, MB, twirl_sigma)
        mech = evolve_delay(mech, cfg.tau, cfg)
        quantum[q_idx] = readout_stage(mech, cfg)
    false_pump, false_read = false_click_probs(cfg)
    joint = _false_click_matrix(false_pump).T @ quantum @ _false_click_matrix(false_read)
    return TrialModel(joint=_checked_table(joint, 1.0, "joint outcome table"),
                      config=cfg)


def witness_moments(cfg: ProtocolConfig) -> dict:
    """Detector -> (<nA nB>, |<a_A+ a_B>|^2) of the intensity-weighted
    herald after the delay, which `TrialModel.exact_witness` divides; a
    zero-intensity herald has none.

    Each moment is Tr[n_j X rho] / Tr[n_j rho] on the pre-measurement
    pump state taken through the pump's share of the relative-phase
    twirl and the delay.  That share is the pump photons'
    distinguishability and the lock offset of the pump imprint, variance
    sigma_d^2 + sigma^2 (see `build_trial_model`).
    """
    intf = cfg.interferometer
    sigma = math.sqrt(distinguishability_variance(intf) + intf.phase_jitter_sigma ** 2)
    state = pump_stage(cfg).state
    if sigma > 0:
        state = _rotation_twirl(state, MB, sigma)
    state = evolve_delay(state, cfg.tau, cfg)
    n_ab = ((MA, True), (MA, False), (MB, True), (MB, False))
    out = {}
    for det, port in ((1, OA), (2, OB)):
        n_j = ((port, True), (port, False))
        intensity = _moment(state, n_j).real
        if intensity > 1e-15:
            coh = _moment(state, n_j + ((MA, True), (MB, False))) / intensity
            out[det] = (_moment(state, n_j + n_ab).real / intensity, abs(coh) ** 2)
    return out
