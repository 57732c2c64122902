"""Truncated Fock-space reference pipeline for the Gaussian protocol backend.

The pump / delay / read stages of `mechlink.protocol` evaluated on the
dense density matrices of `mechlink.fock`, with the optical and phonon
cutoffs as arguments.  Truncation biases the tables low and costs
seconds per setting, so the runtime does not use it; the tests use it
as an independent oracle whose tables must converge to the Gaussian
ones as the cutoffs grow, and to inspect heralded states in the number
basis.
"""

from __future__ import annotations

import math

import numpy as np

from mechlink import fock, protocol
from mechlink.noise import HeatingParams, driven_occupation
from mechlink.protocol import (MA, MB, OA, OB, ProtocolError, PumpStageResult,
                               envelope_overlap, false_click_probs, outcome_index)

# truncation tolerance for channels inside the pipeline
PIPELINE_TOL = 1e-3

# loss / injection steps per device of the delay evolution
HEATING_SLICES = 16

_OUTCOMES = ((0, 0), (1, 0), (0, 1), (1, 1))


def photon_overlap(intf) -> float:
    """Overlap of the two devices' photons in one pulse window: 1 with
    serrodyne compensation, the detuned envelope overlap without."""
    if intf.serrodyne:
        return 1.0
    return envelope_overlap(intf.delta_omega_m, intf.envelope_sigma_ns * 1e-9)


def distinguishability_twirl(state: fock.DensityMatrix, mode_a: int, mode_b: int,
                             overlap: float) -> fock.DensityMatrix:
    """Damp which-path coherences between two optical modes.

    Coherences with excitation-number offsets (da, db) on the two modes
    are scaled by overlap**((da-db)/2)^2; the single-photon exchange
    coherence (da, db) = (1, -1) gets exactly `overlap`.
    """
    if overlap >= 1.0:
        return state
    reg = state.register
    shape = [1] * (2 * reg.n_modes)

    def axis_vec(mode, bra):
        s = list(shape)
        s[mode + (reg.n_modes if bra else 0)] = reg.levels(mode)
        return np.arange(reg.levels(mode)).reshape(s)

    da = axis_vec(mode_a, False) - axis_vec(mode_a, True)
    db = axis_vec(mode_b, False) - axis_vec(mode_b, True)
    factor = overlap ** (((da - db) / 2.0) ** 2)
    t = state.tensor() * factor
    return fock.DensityMatrix(reg, t.reshape(reg.dim, reg.dim),
                              state.truncation_budget)


def _project_then_trace(state: fock.DensityMatrix, vacuum_ports, trace_ports):
    """<0|rho|0> on vacuum_ports, then trace out trace_ports (unnormalized)."""
    t = state.tensor()
    dims = list(state.register.mode_dims)
    n = len(dims)
    for port in sorted(vacuum_ports, reverse=True):
        nn = len(dims)
        t = np.take(np.take(t, 0, axis=nn + port), 0, axis=port)
        dims.pop(port)
    remaining = [m for m in range(n) if m not in vacuum_ports]
    mat = t.reshape(int(np.prod(dims)), int(np.prod(dims)))
    keep = tuple(i for i, m in enumerate(remaining) if m not in trace_ports)
    return fock._partial_trace_mat(mat, dims, keep)


def _joint_click_analysis(state: fock.DensityMatrix, port1: int, port2: int):
    """Joint threshold-click distribution on two modes, by inclusion-exclusion.

    Returns (probs[4], conditional reduced states[4]); the probabilities
    are renormalized over the truncated space.
    """
    keep = tuple(m for m in range(state.register.n_modes) if m not in (port1, port2))
    v12 = _project_then_trace(state, (port1, port2), ())
    v1 = _project_then_trace(state, (port1,), (port2,))
    v2 = _project_then_trace(state, (port2,), (port1,))
    full = fock._partial_trace_mat(state.mat, state.register.mode_dims, keep)
    parts = {(0, 0): v12, (1, 0): v2 - v12, (0, 1): v1 - v12,
             (1, 1): full - v1 - v2 + v12}
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
    return probs / probs.sum(), states


def pump_stage(cfg, cutoff: int = 3, mech_cutoff: int = 3) -> PumpStageResult:
    """Pump window on the [mA, mB, port1, port2] Fock register."""
    intf = cfg.interferometer
    reg = fock.ModeRegister(4, cutoff, cutoffs=(mech_cutoff, mech_cutoff, cutoff, cutoff))
    dev_a, dev_b = cfg.devices()
    state = fock.product_thermal_state(
        reg, [dev_a.start_occupation, dev_b.start_occupation, 0.0, 0.0],
        tol=PIPELINE_TOL)
    state = fock.two_mode_squeeze(state, MA, OA, dev_a.p_pump, phase=0.0,
                                  tol=PIPELINE_TOL)
    state = fock.two_mode_squeeze(state, MB, OB, dev_b.p_pump,
                                  phase=intf.phi0, tol=PIPELINE_TOL)
    state = fock.loss_channel(state, OA, dev_a.eta_path)
    state = fock.loss_channel(state, OB, dev_b.eta_path)
    state = distinguishability_twirl(state, OA, OB, photon_overlap(intf))
    state = fock.beamsplitter(state, OA, OB, intf.combiner_transmittance)
    state = fock.loss_channel(state, OA, cfg.detectors.eta[0])
    state = fock.loss_channel(state, OB, cfg.detectors.eta[1])
    probs, states = _joint_click_analysis(state, OA, OB)
    return PumpStageResult(state=state, quantum_probs=probs, mech_given=states)


def herald(pump: PumpStageResult, cfg, detector: int):
    """Condition on an observed click at `detector` (other port unconstrained).

    Returns (mechanical state over [mA, mB], observed herald probability);
    a false herald, at `cfg`'s pump-window false-click probability, leaves
    the no-click conditional mechanics behind.
    """
    if detector not in (1, 2):
        raise ProtocolError("detector must be 1 or 2")
    j = detector - 1
    f = false_click_probs(cfg)[0][j]
    weighted = None
    total = 0.0
    for c1, c2 in _OUTCOMES:
        idx = outcome_index(c1, c2)
        p_q = pump.quantum_probs[idx]
        if p_q <= 0 or pump.mech_given[idx] is None:
            continue
        w = p_q * (1.0 if (c1, c2)[j] else f)
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
    """rho_j = Tr_opt[n_j rho] / <n_j> over [mA, mB]; returns (rho_j, <n_j>)."""
    reg = pump.state.register
    n_j = np.arange(reg.levels(OA if detector == 1 else OB))
    spec = "abklcdkl,k->abcd" if detector == 1 else "abklcdkl,l->abcd"
    mech_reg = reg.subset((MA, MB))
    mech = np.einsum(spec, pump.state.tensor(), n_j).reshape(mech_reg.dim, mech_reg.dim)
    norm = np.trace(mech).real
    if norm <= 1e-15:
        raise ProtocolError("zero-intensity herald mode")
    mech = 0.5 * (mech + mech.conj().T) / norm
    return fock.DensityMatrix(mech_reg, mech, pump.state.truncation_budget), norm


def evolve_delay(state: fock.DensityMatrix, tau: float, cfg,
                 slices: int = HEATING_SLICES) -> fock.DensityMatrix:
    """The delay as `slices` alternating loss / injection steps per device.

    The injections track the closed-form occupation exactly at every
    slice boundary and are substepped to keep each truncation deficit
    small; the relative phase is applied to mechanical mode B.
    """
    if tau < 0:
        raise ProtocolError("delay must be non-negative")
    if tau == 0:
        return state
    edges = np.linspace(0.0, tau, slices + 1)
    for mode, dev in zip((MA, MB), cfg.devices()):
        heat = HeatingParams(decay=dev.gamma_decay, bath_gamma=dev.bath_gamma,
                             bath_k=dev.bath_k, n_init=dev.n_init)
        q = driven_occupation(edges, heat)
        step_loss = math.exp(-dev.gamma_decay * tau / slices)
        for inject in q[1:] - step_loss * q[:-1]:
            state = fock.loss_channel(state, mode, step_loss)
            if inject > 1e-15:
                n_sub = max(1, math.ceil(inject / 0.05))
                for _ in range(n_sub):
                    state = fock.thermal_noise_channel(state, mode, inject / n_sub,
                                                       tol=PIPELINE_TOL)
    return fock.phase_rotation(state, MB, cfg.interferometer.delta_omega_m * tau)


def readout_stage(mech_state: fock.DensityMatrix, cfg,
                  cutoff: int = 3) -> np.ndarray:
    """Read window on [mA, mB, read A, read B]: the joint read-click outcome
    probabilities, without false clicks."""
    intf = cfg.interferometer
    theta_r = intf.phi0 + intf.delta_phi
    dev_a, dev_b = cfg.devices()
    state = fock.extend_with_vacuum(mech_state, 2, cutoff=cutoff)
    ra, rb = 2, 3
    state = fock.beamsplitter(state, MA, ra, 1.0 - dev_a.p_read, phase=math.pi)
    state = fock.beamsplitter(state, MB, rb, 1.0 - dev_b.p_read,
                              phase=math.pi - theta_r)
    state = fock.loss_channel(state, ra, dev_a.eta_path)
    state = fock.loss_channel(state, rb, dev_b.eta_path)
    state = distinguishability_twirl(state, ra, rb, photon_overlap(intf))
    state = fock.beamsplitter(state, ra, rb, intf.combiner_transmittance)
    state = fock.loss_channel(state, ra, cfg.detectors.read_eta(0))
    state = fock.loss_channel(state, rb, cfg.detectors.read_eta(1))
    probs, _ = _joint_click_analysis(state, ra, rb)
    return probs


def witness_from_state(mech_state: fock.DensityMatrix) -> float:
    """Moment-ratio witness <nA nB> / |<mA+ mB>|^2 on a two-mode state."""
    if mech_state.register.n_modes != 2:
        raise ProtocolError("witness needs a two-mode mechanical state")
    num = fock.mode_moment(mech_state, [(0, True), (0, False), (1, True), (1, False)])
    coh = fock.mode_moment(mech_state, [(0, True), (1, False)])
    denom = abs(coh) ** 2
    if denom <= 1e-12:
        raise ProtocolError("witness undefined (no coherence)")
    return float(num.real / denom)


def trial_model(cfg, cutoff: int = 3, mech_cutoff: int = 3) -> protocol.TrialModel:
    """The observed 4x4 outcome table of the Fock pipeline (no witness moments).

    Lock jitter follows the runtime: a relative-phase twirl of doubled
    sigma on the conditional mechanical states.  Mass lost to truncation
    is renormalized away.
    """
    twirl_sigma = 2.0 * cfg.interferometer.phase_jitter_sigma
    false_pump, false_read = false_click_probs(cfg)
    pump = pump_stage(cfg, cutoff, mech_cutoff)
    quantum = np.zeros((4, 4))
    for q_idx, (p_q, mech) in enumerate(zip(pump.quantum_probs, pump.mech_given)):
        if p_q <= 1e-16 or mech is None:
            quantum[q_idx, 0] = p_q
            continue
        if twirl_sigma > 0:
            mech = fock.phase_noise_twirl(mech, MB, twirl_sigma)
        quantum[q_idx] = p_q * readout_stage(evolve_delay(mech, cfg.tau, cfg),
                                             cfg, cutoff)
    joint = (protocol._false_click_matrix(false_pump).T @ quantum
             @ protocol._false_click_matrix(false_read))
    joint = np.clip(joint, 0.0, None)
    return protocol.TrialModel(joint=joint / joint.sum(), config=cfg)
