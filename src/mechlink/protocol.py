"""The three-step heralding protocol, end to end.

Pump stage: each device is pair-pumped (mechanical mode with a fresh
Stokes optical mode), the optical modes suffer path loss, meet on the
combining beamsplitter and hit the two threshold detectors.  A click
heralds a shared mechanical excitation.

Delay: mechanical decay, transient-bath heating and the relative phase
accumulated by the frequency difference of the two oscillators.  Per
mode this is a thermal attenuator; the Fock engine applies it in
HEATING_SLICES alternating loss / injection steps, while the witness
moments go through its exact Heisenberg action in one step.

Read stage: a partial state swap converts phonons into anti-Stokes
photons, which interfere on the same combiner and are detected.

Mode layout inside a stage register: [mech A, mech B, optical A/port 1,
optical B/port 2].  After the combiner the optical slots hold the
detector port modes.  False positives (leaked drive light, stray
background, electrical darks) are modeled as independent per-window
Bernoulli processes layered onto the exact quantum click probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .devices import InterferometerConfig, ProtocolConfig
from .noise import HeatingParams, driven_occupation

MA, MB, OA, OB = 0, 1, 2, 3

# truncation tolerance for channels inside the pipeline; everything
# discarded is accumulated in the state's truncation budget
_PIPELINE_TOL = 1e-3

# loss / injection steps per device of the Fock delay evolution
HEATING_SLICES = 16

_OUTCOMES = ((0, 0), (1, 0), (0, 1), (1, 1))


class ProtocolError(ValueError):
    pass


def outcome_index(click_1: bool, click_2: bool) -> int:
    return int(click_1) + 2 * int(click_2)


# ---------------------------------------------------------------------------
# serrodyne bookkeeping


@dataclass(frozen=True)
class SerrodyneSetting:
    """Effective drive-frequency offsets per arm and the photon overlap."""

    window: str
    offset_a: float      # rad/s added to the arm-A drive
    offset_b: float
    overlap: float       # spectral overlap of the emitted photons, in [0, 1]


def envelope_overlap(delta_omega: float, envelope_sigma: float) -> float:
    """Magnitude of the overlap of two identical envelopes detuned by delta_omega.

    For a Gaussian intensity envelope of rms duration sigma_t the overlap
    integral |∫ |f(t)|^2 e^{i Δ t} dt| evaluates to exp(-(Δ sigma_t)^2 / 2).
    """
    return math.exp(-0.5 * (delta_omega * envelope_sigma) ** 2)


def serrodyne_compensation(interferometer: InterferometerConfig,
                           window: str) -> SerrodyneSetting:
    """Frequency bookkeeping for one pulse window.

    With compensation on, the drive to device A is shifted so the emitted
    photons from both devices are degenerate: overlap 1.  With it off
    the emitted photons are detuned by the full mechanical frequency
    difference and interference terms shrink by the envelope overlap.
    """
    if window not in ("pump", "read"):
        raise ProtocolError("window must be 'pump' or 'read'")
    d = interferometer.delta_omega_m
    if interferometer.serrodyne:
        off = d if window == "pump" else -d
        return SerrodyneSetting(window, off, 0.0, 1.0)
    lam = envelope_overlap(d, interferometer.envelope_sigma_ns * 1e-9)
    return SerrodyneSetting(window, 0.0, 0.0, lam)


def distinguishability_twirl(state: fock.DensityMatrix, mode_a: int, mode_b: int,
                             overlap: float) -> fock.DensityMatrix:
    """Damp which-path coherences between two optical modes.

    Coherences with excitation-number offsets (da, db) on the two modes
    are scaled by overlap**((da-db)/2)^2; the single-photon exchange
    coherence (da, db) = (1, -1) gets exactly `overlap`.  Realized as a
    Gaussian twirl of the relative phase, hence completely positive;
    overlap 0 (fully distinguishable) kills every which-path coherence.
    """
    if overlap >= 1.0:
        return state
    if overlap < 0.0:
        raise ProtocolError("overlap must lie in [0, 1]")
    reg = state.register
    shape = [1] * (2 * reg.n_modes)

    def axis_vec(mode, bra):
        s = list(shape)
        s[mode + (reg.n_modes if bra else 0)] = reg.levels(mode)
        return np.arange(reg.levels(mode)).reshape(s)

    da = axis_vec(mode_a, False) - axis_vec(mode_a, True)
    db = axis_vec(mode_b, False) - axis_vec(mode_b, True)
    m = (da - db) / 2.0
    factor = overlap ** (m**2)
    t = state.tensor() * factor
    return fock.DensityMatrix(reg, t.reshape(reg.dim, reg.dim),
                              state.truncation_budget)


# ---------------------------------------------------------------------------
# pump stage


@dataclass
class PumpStageResult:
    state: fock.DensityMatrix                  # [mA, mB, port1, port2]
    quantum_probs: np.ndarray                  # P of (c1, c2) outcomes, index outcome_index
    mech_given: list                           # conditional mech states (None when p=0)
    false_click: tuple                         # per-detector pump-window false prob
    config: ProtocolConfig

    def detector_click_prob(self, detector: int) -> float:
        """Observed click probability including false positives."""
        q = sum(self.quantum_probs[outcome_index(c1, c2)]
                for c1, c2 in _OUTCOMES if (c1, c2)[detector - 1])
        f = self.false_click[detector - 1]
        return 1.0 - (1.0 - q) * (1.0 - f)


def _leak_means(cfg: ProtocolConfig) -> tuple:
    """Poisson leak means per (window, detector) from the per-device rates.

    The per-detected-phonon leak rate of each device is referred to an
    absolute per-trial mean through that device's single-phonon read
    detection scale; pump-window leakage is scaled by the pulse-energy
    ratio.
    """
    intf = cfg.interferometer
    t_comb = intf.combiner_transmittance
    weights = ((t_comb, 1.0 - t_comb), (1.0 - t_comb, t_comb))  # device -> port
    read = [0.0, 0.0]
    for dev, w, arm in zip(cfg.devices(), weights, "AB"):
        path = dev.eta_path * intf.arm_attenuation(arm)
        for j in range(2):
            scale = dev.p_read * path * w[j] * cfg.detectors.read_eta(j)
            read[j] += dev.n_leak * scale
    pump = [cfg.detectors.leak_pump_scale * m for m in read]
    return tuple(pump), tuple(read)


def false_click_probs(cfg: ProtocolConfig) -> tuple:
    """(pump, read) per-detector false-click probabilities per window."""
    leak_pump, leak_read = _leak_means(cfg)
    pump = tuple(
        1.0 - (1.0 - cfg.detectors.p_dark_pump[j]) * math.exp(-leak_pump[j])
        for j in range(2))
    read = tuple(
        1.0 - (1.0 - cfg.detectors.p_dark_read[j]) * math.exp(-leak_read[j])
        for j in range(2))
    return pump, read


def _project_then_trace(state: fock.DensityMatrix, vacuum_ports, trace_ports):
    """<0|rho|0> on vacuum_ports, then trace out trace_ports (unnormalized)."""
    t = state.tensor()
    dims = list(state.register.mode_dims)
    n = len(dims)
    removed = []
    for port in sorted(vacuum_ports, reverse=True):
        nn = len(dims)
        t = np.take(np.take(t, 0, axis=nn + port), 0, axis=port)
        dims.pop(port)
        removed.append(port)
    remaining = [m for m in range(n) if m not in vacuum_ports]
    mat = t.reshape(int(np.prod(dims)), int(np.prod(dims)))
    keep = tuple(i for i, m in enumerate(remaining) if m not in trace_ports)
    return fock._partial_trace_mat(mat, dims, keep)


def _joint_click_analysis(state: fock.DensityMatrix, port1: int, port2: int):
    """Exact joint threshold-click distribution on two modes.

    Returns (probs[4], conditional reduced states[4]) with the two
    measured modes traced out; element order follows outcome_index.
    Assembled by inclusion-exclusion over the vacuum ("no click")
    projections of each port.
    """
    keep = tuple(m for m in range(state.register.n_modes) if m not in (port1, port2))
    v12 = _project_then_trace(state, (port1, port2), ())
    v1 = _project_then_trace(state, (port1,), (port2,))
    v2 = _project_then_trace(state, (port2,), (port1,))
    full = fock._partial_trace_mat(state.mat, state.register.mode_dims, keep)

    parts = {
        (0, 0): v12,
        (1, 0): v2 - v12,
        (0, 1): v1 - v12,
        (1, 1): full - v1 - v2 + v12,
    }
    probs = np.zeros(4)
    states = [None] * 4
    reg = state.register.subset(keep)
    for (c1, c2), mat in parts.items():
        idx = outcome_index(c1, c2)
        p = float(np.trace(mat).real)
        probs[idx] = max(p, 0.0)
        if p > 1e-14:
            states[idx] = fock.DensityMatrix(
                reg, 0.5 * (mat + mat.conj().T) / p, state.truncation_budget)
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    return probs, states


def _stage_register(cfg: ProtocolConfig) -> fock.ModeRegister:
    mc, oc = cfg.phonon_cutoff, cfg.cutoff
    return fock.ModeRegister(4, oc, cutoffs=(mc, mc, oc, oc))


def pump_stage(cfg: ProtocolConfig, jitter_phase: float = 0.0) -> PumpStageResult:
    """Exact pre-measurement state and click analysis of the pump window."""
    intf = cfg.interferometer
    reg = _stage_register(cfg)
    dev_a, dev_b = cfg.devices()
    state = fock.product_thermal_state(
        reg, [dev_a.start_occupation, dev_b.start_occupation, 0.0, 0.0],
        tol=_PIPELINE_TOL)

    state = fock.two_mode_squeeze(state, MA, OA, dev_a.p_pump, phase=0.0,
                                  tol=_PIPELINE_TOL)
    state = fock.two_mode_squeeze(state, MB, OB, dev_b.p_pump,
                                  phase=intf.phi0 + jitter_phase,
                                  tol=_PIPELINE_TOL)
    state = fock.loss_channel(state, OA, dev_a.eta_path * intf.arm_attenuation("A"))
    state = fock.loss_channel(state, OB, dev_b.eta_path * intf.arm_attenuation("B"))

    setting = serrodyne_compensation(intf, "pump")
    if setting.overlap < 1.0:
        state = distinguishability_twirl(state, OA, OB, setting.overlap)

    state = fock.beamsplitter(state, OA, OB, intf.combiner_transmittance)
    state = fock.loss_channel(state, OA, cfg.detectors.eta[0])
    state = fock.loss_channel(state, OB, cfg.detectors.eta[1])

    probs, states = _joint_click_analysis(state, OA, OB)
    false_pump, _ = false_click_probs(cfg)
    return PumpStageResult(state=state, quantum_probs=probs, mech_given=states,
                           false_click=false_pump, config=cfg)


def _per_device_flux(cfg: ProtocolConfig) -> tuple:
    """Quantum herald flux contribution of each device (other arm blocked)."""
    intf = cfg.interferometer
    t_comb = intf.combiner_transmittance
    weights = ((t_comb, 1.0 - t_comb), (1.0 - t_comb, t_comb))
    out = []
    for dev, w, arm in zip(cfg.devices(), weights, "AB"):
        path = dev.eta_path * intf.arm_attenuation(arm)
        reg = fock.ModeRegister(2, cfg.cutoff,
                                cutoffs=(cfg.phonon_cutoff, cfg.cutoff))
        st = fock.thermal_state(dev.start_occupation, reg, 0, tol=_PIPELINE_TOL)
        st = fock.two_mode_squeeze(st, 0, 1, dev.p_pump, tol=_PIPELINE_TOL)
        st = fock.loss_channel(st, 1, path)
        total = 0.0
        for j in range(2):
            st_j = fock.loss_channel(st, 1, w[j] * cfg.detectors.eta[j])
            total += fock.click_measurement(st_j, 1).p_click
        out.append(total)
    return tuple(out)


def herald(pump: PumpStageResult, detector: int):
    """Condition on an observed click at `detector` (other port unconstrained).

    Returns (mechanical state over [mA, mB], observed herald probability).
    False positives are mixed in: a false herald leaves the no-click
    conditional mechanics behind.
    """
    if detector not in (1, 2):
        raise ProtocolError("detector must be 1 or 2")
    j = detector - 1
    f = pump.false_click[j]
    weighted = None
    total = 0.0
    for c1, c2 in _OUTCOMES:
        idx = outcome_index(c1, c2)
        p_q = pump.quantum_probs[idx]
        if p_q <= 0 or pump.mech_given[idx] is None:
            continue
        clicked = (c1, c2)[j]
        w = p_q * (1.0 if clicked else f)
        if w <= 0:
            continue
        total += w
        contrib = w * pump.mech_given[idx].mat
        weighted = contrib if weighted is None else weighted + contrib
    if total <= 1e-15 or weighted is None:
        raise ProtocolError("zero-probability herald requested")
    reg = pump.mech_given[outcome_index(0, 0)].register
    state = fock.DensityMatrix(reg, 0.5 * (weighted + weighted.conj().T) / total,
                               pump.state.truncation_budget)
    return state, total


def number_weighted_herald(pump: PumpStageResult, detector: int):
    """Mechanical state conditioned with the photon-number weight of port j.

    This is the conditional average used by the moment-ratio witness:
    rho_j = Tr_opt[n_j rho] / <n_j>, the exact analog of normalizing by
    the heralding mode intensity.  Returns (rho_j, <n_j>).
    """
    if detector not in (1, 2):
        raise ProtocolError("detector must be 1 or 2")
    reg = pump.state.register
    n_j = np.arange(reg.levels(OA if detector == 1 else OB))
    # axes [mA, mB, port1, port2] on ket then bra; n_j is diagonal, so the
    # weighted trace over both ports is one contraction
    spec = "abklcdkl,k->abcd" if detector == 1 else "abklcdkl,l->abcd"
    mech_reg = reg.subset((MA, MB))
    mech = np.einsum(spec, pump.state.tensor(), n_j).reshape(mech_reg.dim,
                                                               mech_reg.dim)
    norm = np.trace(mech).real
    if norm <= 1e-15:
        raise ProtocolError("zero-intensity herald mode")
    mech = 0.5 * (mech + mech.conj().T) / norm
    return fock.DensityMatrix(mech_reg, mech, pump.state.truncation_budget), norm


# ---------------------------------------------------------------------------
# delay evolution


def _thermal_attenuators(cfg: ProtocolConfig, tau: float, steps: int) -> list:
    """The delay of each mechanical mode as `steps` equal thermal attenuators.

    Returns per device (loss per step, added occupation of each step).
    The added occupation is chosen so the mean occupation tracks the
    closed-form transient-bath solution exactly at every step boundary;
    with steps=1 it is the exact (eta, N) of the whole delay.
    """
    edges = np.linspace(0.0, tau, steps + 1)
    out = []
    for dev in cfg.devices():
        heat = HeatingParams(decay=dev.gamma_decay, bath_gamma=dev.bath_gamma,
                             bath_k=dev.bath_k, n_init=dev.n_init)
        q = driven_occupation(edges, heat)
        eta = math.exp(-dev.gamma_decay * tau / steps)
        out.append((eta, q[1:] - eta * q[:-1]))
    return out


def evolve_delay(state: fock.DensityMatrix, tau: float,
                 cfg: ProtocolConfig) -> fock.DensityMatrix:
    """Decay, transient-bath heating and relative phase over the delay.

    Each mechanical mode goes through HEATING_SLICES alternating loss /
    injection steps (`_thermal_attenuators`); the injections are
    substepped to keep each truncation deficit small.  The relative
    phase delta_omega_m * tau is applied to mechanical mode B.
    """
    if tau < 0:
        raise ProtocolError("delay must be non-negative")
    if tau == 0:
        return state
    for mode, (step_loss, injections) in zip(
            (MA, MB), _thermal_attenuators(cfg, tau, HEATING_SLICES)):
        for inject in injections:
            state = fock.loss_channel(state, mode, step_loss)
            if inject > 1e-15:
                # injections compose additively; substep the large ones to
                # keep the per-application truncation deficit negligible
                n_sub = max(1, math.ceil(inject / 0.05))
                for _ in range(n_sub):
                    state = fock.thermal_noise_channel(state, mode, inject / n_sub,
                                                       tol=_PIPELINE_TOL)
    state = fock.phase_rotation(state, MB, cfg.interferometer.delta_omega_m * tau)
    return state


# ---------------------------------------------------------------------------
# read stage


@dataclass
class ReadStageResult:
    quantum_probs: np.ndarray       # joint read-click outcomes, outcome_index order
    false_click: tuple
    state: fock.DensityMatrix       # post-combiner, pre-measurement

    def detector_click_prob(self, detector: int) -> float:
        q = sum(self.quantum_probs[outcome_index(c1, c2)]
                for c1, c2 in _OUTCOMES if (c1, c2)[detector - 1])
        f = self.false_click[detector - 1]
        return 1.0 - (1.0 - q) * (1.0 - f)

    def observed_probs(self) -> np.ndarray:
        return observed_outcome_probs(self.quantum_probs, self.false_click)


def readout_stage(mech_state: fock.DensityMatrix, cfg: ProtocolConfig,
                  delta_phi: float | None = None,
                  jitter_phase: float = 0.0) -> ReadStageResult:
    """Partial state swap, interference and detection of the read window."""
    intf = cfg.interferometer
    if delta_phi is None:
        delta_phi = intf.delta_phi
    theta_r = intf.phi0 + delta_phi + jitter_phase
    dev_a, dev_b = cfg.devices()

    state = fock.extend_with_vacuum(mech_state, 2, cutoff=cfg.cutoff)
    ra, rb = 2, 3
    # conversion amplitude m -> r carries the drive phase; arm A is the
    # phase reference, arm B adds theta_r
    state = fock.beamsplitter(state, MA, ra, 1.0 - dev_a.p_read, phase=math.pi)
    state = fock.beamsplitter(state, MB, rb, 1.0 - dev_b.p_read,
                              phase=math.pi - theta_r)
    state = fock.loss_channel(state, ra, dev_a.eta_path * intf.arm_attenuation("A"))
    state = fock.loss_channel(state, rb, dev_b.eta_path * intf.arm_attenuation("B"))

    setting = serrodyne_compensation(intf, "read")
    if setting.overlap < 1.0:
        state = distinguishability_twirl(state, ra, rb, setting.overlap)

    state = fock.beamsplitter(state, ra, rb, intf.combiner_transmittance)
    state = fock.loss_channel(state, ra, cfg.detectors.read_eta(0))
    state = fock.loss_channel(state, rb, cfg.detectors.read_eta(1))

    probs, _ = _joint_click_analysis(state, ra, rb)
    _, false_read = false_click_probs(cfg)
    return ReadStageResult(quantum_probs=probs, false_click=false_read, state=state)


# ---------------------------------------------------------------------------
# outcome algebra


def observed_outcome_probs(quantum_probs: np.ndarray, false_p: tuple) -> np.ndarray:
    """Distribution over observed (click1, click2) with independent falses."""
    out = np.zeros(4)
    f1, f2 = false_p
    for c1, c2 in _OUTCOMES:
        p = quantum_probs[outcome_index(c1, c2)]
        if p <= 0:
            continue
        for a in (0, 1):
            pa = (f1 if a else 1.0 - f1) if not c1 else (1.0 if a else 0.0)
            if pa == 0.0:
                continue
            for b in (0, 1):
                pb = (f2 if b else 1.0 - f2) if not c2 else (1.0 if b else 0.0)
                out[outcome_index(a, b)] += p * pa * pb
    return out


# ---------------------------------------------------------------------------
# witness from the exact state


def witness_from_state(mech_state: fock.DensityMatrix) -> float:
    """Moment-ratio witness <nA nB> / |<mA+ mB>|^2 on a two-mode state.

    Values below 1 certify non-separability for Gaussian-input protocols;
    vanishing cross-coherence leaves the witness undefined.
    """
    if mech_state.register.n_modes != 2:
        raise ProtocolError("witness needs a two-mode mechanical state")
    num = fock.mode_moment(mech_state, [(0, True), (0, False), (1, True), (1, False)])
    coh = fock.mode_moment(mech_state, [(0, True), (1, False)])
    denom = abs(coh) ** 2
    if denom <= 1e-12:
        raise ProtocolError("witness undefined (no coherence)")
    return float(num.real / denom)


def single_device_g2_exact(cfg: ProtocolConfig, device: str,
                           tau: float | None = None) -> float:
    """Exact pump/read cross-correlation of one device, other arm blocked.

    Evaluated at detector 2 (the convention for single-device runs) and
    including stimulated-scattering enhancement that the closed-form
    low-temperature expression neglects; min(g2_A, g2_B) - 1 is the
    rigorous ceiling on the two-device interference contrast.
    """
    import dataclasses

    if device not in ("A", "B"):
        raise ProtocolError("device must be 'A' or 'B'")
    blocked = "B" if device == "A" else "A"
    blocked_dev = getattr(cfg, f"device_{blocked.lower()}")
    cfg_single = dataclasses.replace(
        cfg, **{f"device_{blocked.lower()}": dataclasses.replace(blocked_dev, eta_path=0.0)})
    model = build_trial_model(cfg_single, tau=tau)
    return model.g2_exact(2, 2)


def exact_visibility_ceiling(cfg: ProtocolConfig, tau: float | None = None) -> float:
    """Visibility bound C/(C+2) from the exact single-device correlations."""
    c = min(single_device_g2_exact(cfg, "A", tau),
            single_device_g2_exact(cfg, "B", tau)) - 1.0
    if c <= 0:
        return 0.0
    return c / (c + 2.0)


# ---------------------------------------------------------------------------
# flux balancing


def balance(cfg: ProtocolConfig, target: float = 0.02) -> tuple:
    """Attenuation on the brighter arm equalizing per-device herald flux.

    Returns (arm, attenuation); bisection on the pump-stage flux until
    the relative difference is far below `target` (guard: both arms must
    produce flux).
    """
    import dataclasses

    base = dataclasses.replace(
        cfg, interferometer=dataclasses.replace(
            cfg.interferometer, balance_attenuation=1.0, balance_arm="none"))
    flux_a, flux_b = _per_device_flux(base)
    if flux_a <= 0 or flux_b <= 0:
        raise ProtocolError("unreachable balance: one arm produces no herald flux")
    if abs(flux_a - flux_b) / max(flux_a, flux_b) <= 1e-12:
        return ("none", 1.0)
    arm = "A" if flux_a > flux_b else "B"

    def imbalance(att):
        c = dataclasses.replace(
            base, interferometer=dataclasses.replace(
                base.interferometer, balance_attenuation=att, balance_arm=arm))
        fa, fb = _per_device_flux(c)
        return fa - fb

    lo, hi = 0.0, 1.0
    f_hi = imbalance(1.0)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        f_mid = imbalance(mid)
        if (f_mid > 0) == (f_hi > 0):
            hi, f_hi = mid, f_mid
        else:
            lo = mid
    att = 0.5 * (lo + hi)
    residual = abs(imbalance(att)) / max(flux_a, flux_b)
    if residual > target:
        raise ProtocolError(f"balance residual {residual:.3%} above target")
    return (arm, att)


# ---------------------------------------------------------------------------
# per-trial outcome model


@dataclass
class TrialModel:
    """Exact per-trial outcome distribution and derived statistics."""

    joint: np.ndarray            # P(pump outcome, read outcome), 4x4
    pump_marginal: np.ndarray    # P per pump outcome
    read_given_pump: np.ndarray  # conditional read outcome table, 4x4
    config: ProtocolConfig
    delta_phi: float
    truncation_budget: float
    witness_moments: dict        # detector -> (<nA nB>, |<a_A+ a_B>|^2) of the
                                 # intensity-weighted mech state after the delay

    def pump_click_prob(self, detector: int) -> float:
        j = detector - 1
        return sum(self.joint[outcome_index(c1, c2), :].sum()
                   for c1, c2 in _OUTCOMES if (c1, c2)[j])

    def read_click_prob(self, detector: int) -> float:
        i = detector - 1
        return sum(self.joint[:, outcome_index(c1, c2)].sum()
                   for c1, c2 in _OUTCOMES if (c1, c2)[i])

    def coincidence_prob(self, read_det: int, pump_det: int) -> float:
        i, j = read_det - 1, pump_det - 1
        total = 0.0
        for pc1, pc2 in _OUTCOMES:
            if not (pc1, pc2)[j]:
                continue
            for rc1, rc2 in _OUTCOMES:
                if not (rc1, rc2)[i]:
                    continue
                total += self.joint[outcome_index(pc1, pc2), outcome_index(rc1, rc2)]
        return total

    def herald_prob(self) -> float:
        return float(self.joint[1:, :].sum())

    def g2_exact(self, read_det: int, pump_det: int) -> float:
        pc = self.coincidence_prob(read_det, pump_det)
        pp = self.pump_click_prob(pump_det)
        pr = self.read_click_prob(read_det)
        if pp <= 0 or pr <= 0:
            raise ProtocolError("zero singles probability")
        return pc / (pp * pr)

    def exact_witness(self, detector: int) -> float:
        """Moment-ratio witness of the intensity-weighted herald (see
        witness_from_state)."""
        if detector not in self.witness_moments:
            raise ProtocolError("zero-intensity herald mode")
        num, coh2 = self.witness_moments[detector]
        if coh2 <= 1e-12:
            raise ProtocolError("witness undefined (no coherence)")
        return float(num / coh2)


def _jitter_nodes(cfg: ProtocolConfig):
    sigma = cfg.interferometer.phase_jitter_sigma
    if sigma <= 0 or cfg.jitter_nodes == 1:
        return np.array([0.0]), np.array([1.0])
    x, w = np.polynomial.hermite.hermgauss(cfg.jitter_nodes)
    return sigma * math.sqrt(2.0) * x, w / math.sqrt(math.pi)


def _use_jitter_twirl(cfg: ProtocolConfig) -> bool:
    """Fast lock-noise path: dephase the heralded coherence instead of
    quadrature over full pipeline evaluations.

    Within a trial the pump imprint and the read drive share the same
    lock offset, so the fringe phase shifts by twice the offset; the
    Gaussian average is exactly a relative-phase twirl of doubled sigma
    on the conditional mechanical states (the neglected residue is the
    O(p_pump^2) two-pair interference in the pump window).
    """
    return cfg.interferometer.phase_jitter_sigma > 0 and cfg.jitter_nodes == 1


def _witness_moments(pump: PumpStageResult, detector: int) -> np.ndarray:
    """Unnormalized moments of Tr_opt[n_j rho] before the delay.

    Order: (<n_j>, <nA nB>, <nA>, <nB>, <a_A+ a_B>), each weighted by the
    herald intensity <n_j>, so averages over jitter nodes stay linear.
    """
    state, intensity = number_weighted_herald(pump, detector)
    ops = ([(0, True), (0, False), (1, True), (1, False)],
           [(0, True), (0, False)], [(1, True), (1, False)],
           [(0, True), (1, False)])
    return intensity * np.array([1.0] + [fock.mode_moment(state, op) for op in ops])


def _delayed_witness_moments(acc: np.ndarray, tau: float, cfg: ProtocolConfig,
                             twirl_sigma: float) -> tuple:
    """(<nA nB>, |<a_A+ a_B>|^2) after the delay, from `_witness_moments`.

    Per mode the delay is a thermal attenuator (eta, N): in the
    Heisenberg picture n -> eta n + N and a -> sqrt(eta) e^{i phi} a, so
    nA nB -> (etaA nA + NA)(etaB nB + NB) and the coherence shrinks by
    sqrt(etaA etaB).  The pump share sigma/2 of the jitter twirl damps
    |<a_A+ a_B>|^2 by exp(-(sigma/2)^2).
    """
    (eta_a, (n_a,)), (eta_b, (n_b,)) = _thermal_attenuators(cfg, tau, 1)
    _, nn, na, nb, coh = acc / acc[0].real
    num = (eta_a * eta_b * nn + eta_a * n_b * na + n_a * eta_b * nb).real
    num += n_a * n_b
    coh2 = eta_a * eta_b * abs(coh) ** 2 * math.exp(-(0.5 * twirl_sigma) ** 2)
    return float(num), float(coh2)


def build_trial_model(cfg: ProtocolConfig, delta_phi: float | None = None,
                      tau: float | None = None) -> TrialModel:
    """Assemble the exact 4x4 observed-outcome table for one setting.

    Residual lock jitter is integrated out with Gauss-Hermite quadrature;
    within one trial the pump and read windows share the same phase
    offset, so the average runs over full pipeline evaluations.  Only the
    four click-conditioned mechanical states go through the Fock delay;
    the witness moments of the intensity-weighted herald follow from the
    delay's closed-form Heisenberg action.
    """
    if delta_phi is None:
        delta_phi = cfg.interferometer.delta_phi
    if tau is None:
        tau = cfg.tau
    twirl_sigma = 0.0
    if _use_jitter_twirl(cfg):
        twirl_sigma = 2.0 * cfg.interferometer.phase_jitter_sigma
        nodes, weights = np.array([0.0]), np.array([1.0])
    else:
        nodes, weights = _jitter_nodes(cfg)

    joint = np.zeros((4, 4))
    witness_acc = {1: np.zeros(5, complex), 2: np.zeros(5, complex)}
    budget = 0.0
    false_pump = None

    for node, weight in zip(nodes, weights):
        pump = pump_stage(cfg, jitter_phase=node)
        false_pump = pump.false_click
        read_quantum = np.zeros((4, 4))
        false_read = None
        for q_idx in range(4):
            p_q = pump.quantum_probs[q_idx]
            mech = pump.mech_given[q_idx]
            if p_q <= 1e-16 or mech is None:
                # outcome cannot occur; leave a uniform placeholder row
                read_quantum[q_idx, 0] = 1.0
                continue
            if twirl_sigma > 0:
                mech = fock.phase_noise_twirl(mech, MB, twirl_sigma)
            evolved = evolve_delay(mech, tau, cfg)
            budget = max(budget, evolved.truncation_budget)
            rd = readout_stage(evolved, cfg, delta_phi=delta_phi,
                               jitter_phase=node)
            false_read = rd.false_click
            read_quantum[q_idx] = rd.observed_probs()
        if false_read is None:
            _, false_read = false_click_probs(cfg)

        # assemble observed pump outcomes with falses, then the joint
        for q_idx in range(4):
            p_q = pump.quantum_probs[q_idx]
            if p_q <= 0:
                continue
            qc = _OUTCOMES[q_idx]
            for a in (0, 1):
                pa = 1.0 if (qc[0] and a) else (0.0 if qc[0] else
                                                (false_pump[0] if a else 1 - false_pump[0]))
                if pa == 0.0:
                    continue
                for b in (0, 1):
                    pb = 1.0 if (qc[1] and b) else (0.0 if qc[1] else
                                                    (false_pump[1] if b else 1 - false_pump[1]))
                    if pb == 0.0:
                        continue
                    joint[outcome_index(a, b)] += weight * p_q * pa * pb * read_quantum[q_idx]

        for det in (1, 2):
            try:
                witness_acc[det] += weight * _witness_moments(pump, det)
            except ProtocolError:
                pass  # zero-intensity herald mode

    joint = np.clip(joint, 0.0, None)
    joint /= joint.sum()

    # the weighted states carry only the pump's share of the lock noise
    # (the read drive adds the other half to the fringe)
    witness_moments = {
        det: _delayed_witness_moments(acc, tau, cfg, twirl_sigma)
        for det, acc in witness_acc.items() if acc[0].real > 0}

    pump_marginal = joint.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        read_given = np.where(pump_marginal[:, None] > 0,
                              joint / np.maximum(pump_marginal[:, None], 1e-300),
                              0.0)
    # rows for impossible pump outcomes never get sampled; keep them valid
    for idx in range(4):
        if pump_marginal[idx] <= 0:
            read_given[idx] = np.array([1.0, 0.0, 0.0, 0.0])

    return TrialModel(joint=joint, pump_marginal=pump_marginal,
                      read_given_pump=read_given, config=cfg,
                      delta_phi=delta_phi, truncation_budget=budget,
                      witness_moments=witness_moments)
