"""Stacked-twirl reference for `mechlink.protocol.build_trial_model`.

Each relative-phase blur is applied where it physically happens: the
pump photons' distinguishability twirl on optical A before the pump
combiner, the lock-noise twirl of width 2 sigma on mech B after the
herald, and the read photons' distinguishability twirl on read mode A
before the read combiner.  With ROTATION_NODES nodes per twirl a state
carries the cube of that many terms per pump outcome, so the tests
build `joint` at a reduced node count; the runtime applies one twirl of
the summed variance, which must reproduce it.

The read stage here is the physical step itself: a partial swap of each
phonon mode into a vacuum read mode, traced over the mechanics.  The
runtime applies the pure-loss channel that this equals.

`closed_form_witness_moments` is an independent reference for the
delay's action on the witness moments: the Heisenberg-picture algebra
of the thermal attenuators and of the pump's twirl on moments of the
undelayed pump state.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from mechlink import protocol
from mechlink.noise import HeatingParams, driven_occupation
from mechlink.protocol import MA, MB, OA, OB


def _twirl(state, mode, sigma):
    return protocol._rotation_twirl(state, mode, sigma) if sigma > 0 else state


def _distinguishability_sigma(cfg) -> float:
    return math.sqrt(protocol.distinguishability_variance(cfg.interferometer))


def pump_stage(cfg) -> protocol.PumpStageResult:
    """`protocol.pump_stage` with the pump photons' twirl on optical A."""
    intf = cfg.interferometer
    dev_a, dev_b = cfg.devices()
    state = protocol._thermal([dev_a.start_occupation, dev_b.start_occupation, 0.0, 0.0])
    state = protocol._two_mode_squeeze(state, MA, OA, dev_a.p_pump)
    state = protocol._two_mode_squeeze(state, MB, OB, dev_b.p_pump, phase=intf.phi0)
    state = protocol._attenuate(state, OA, dev_a.eta_path)
    state = protocol._attenuate(state, OB, dev_b.eta_path)
    state = _twirl(state, OA, _distinguishability_sigma(cfg))
    state = protocol._beamsplitter(state, OA, OB, intf.combiner_transmittance)
    state = protocol._attenuate(state, OA, cfg.detectors.eta[0])
    state = protocol._attenuate(state, OB, cfg.detectors.eta[1])
    probs, mech = protocol._click_outcomes(state, OA, OB)
    return protocol.PumpStageResult(state=state, quantum_probs=probs, mech_given=mech)


def _with_vacuum(state, extra):
    """`state` with `extra` vacuum modes appended after its own."""
    n = 2 * state.n_modes
    cov = np.zeros((len(state.weight), n + 2 * extra, n + 2 * extra))
    cov[:, :n, :n] = state.cov
    cov[:, n:, n:] = np.eye(2 * extra)
    return protocol.GaussianState(state.weight, cov)


def _swap(state, mech, read, p_read, phase):
    """Partial state swap of transmittance T = 1 - p_read:
    m -> sqrt(T) m + e^{i phase} sqrt(1-T) r, r -> sqrt(T) r - e^{-i phase} sqrt(1-T) m."""
    transmittance = 1.0 - p_read
    t, r = math.sqrt(transmittance), math.sqrt(1.0 - transmittance)
    e = cmath.exp(1j * phase)
    return protocol._linear(state, (mech, read), [[t, e * r], [-r / e, t]])


def read_probs(mech_state, cfg) -> np.ndarray:
    """`protocol.readout_stage` built as the swap of each phonon mode into a
    vacuum read mode, traced over the mechanics, with the read photons'
    twirl on read mode A (none with serrodyne compensation on)."""
    intf = cfg.interferometer
    dev_a, dev_b = cfg.devices()
    state = _with_vacuum(mech_state, 2)
    state = _swap(state, MA, 2, dev_a.p_read, math.pi)
    state = _swap(state, MB, 3, dev_b.p_read, math.pi - intf.phi0 - intf.delta_phi)
    state = protocol._vacuum_projection(state, (), (2, 3))
    state = protocol._attenuate(state, 0, dev_a.eta_path)
    state = protocol._attenuate(state, 1, dev_b.eta_path)
    state = _twirl(state, 0, _distinguishability_sigma(cfg))
    state = protocol._beamsplitter(state, 0, 1, intf.combiner_transmittance)
    state = protocol._attenuate(state, 0, cfg.detectors.read_eta(0))
    state = protocol._attenuate(state, 1, cfg.detectors.read_eta(1))
    probs, _ = protocol._click_outcomes(state, 0, 1)
    return probs


def joint(cfg) -> np.ndarray:
    """The observed 4x4 outcome table through the three stacked twirls."""
    lock_sigma = 2.0 * cfg.interferometer.phase_jitter_sigma
    quantum = np.array([
        read_probs(protocol.evolve_delay(_twirl(mech, MB, lock_sigma), cfg.tau, cfg), cfg)
        for mech in pump_stage(cfg).mech_given])
    false_pump, false_read = protocol.false_click_probs(cfg)
    return (protocol._false_click_matrix(false_pump).T @ quantum
            @ protocol._false_click_matrix(false_read))


def _herald_moments(state) -> dict:
    """Detector -> (<nA nB>, <nA>, <nB>, <a_A+ a_B>) of the herald weighted
    by its intensity <n_j>, Tr[n_j X rho] / Tr[n_j rho]; a zero-intensity
    herald has none."""
    n_a, n_b = ((MA, True), (MA, False)), ((MB, True), (MB, False))
    ops = (n_a + n_b, n_a, n_b, ((MA, True), (MB, False)))
    out = {}
    for det, port in ((1, OA), (2, OB)):
        n_j = ((port, True), (port, False))
        intensity = protocol._moment(state, n_j).real
        if intensity > 1e-15:
            out[det] = [protocol._moment(state, n_j + op) / intensity for op in ops]
    return out


def witness_moments(cfg) -> dict:
    """Delayed witness moments from Isserlis sums on the stacked-twirl pump
    state, taken through the lock noise's pump share (a twirl of mech B of
    width sigma) and `protocol.evolve_delay`."""
    state = _twirl(pump_stage(cfg).state, MB, cfg.interferometer.phase_jitter_sigma)
    state = protocol.evolve_delay(state, cfg.tau, cfg)
    return {det: (nn.real, abs(coh) ** 2)
            for det, (nn, _, _, coh) in _herald_moments(state).items()}


def closed_form_witness_moments(cfg) -> dict:
    """Delayed witness moments by the Heisenberg action of the delay.

    Per mode the delay is a thermal attenuator (eta, N) with eta =
    exp(-gamma tau) and N the occupation the transient bath adds from
    zero: n -> eta n + N and a -> sqrt(eta) e^{i phi} a, so nA nB ->
    (etaA nA + NA)(etaB nB + NB) and the coherence shrinks by
    sqrt(etaA etaB).  The pump's share of the relative-phase twirl
    leaves the number moments alone and damps |<a_A+ a_B>|^2 by
    exp(-(sigma_d^2 + sigma^2)).
    """
    (eta_a, n_a), (eta_b, n_b) = [
        (math.exp(-dev.gamma_decay * cfg.tau),
         float(driven_occupation(cfg.tau, HeatingParams(
             decay=dev.gamma_decay, bath_gamma=dev.bath_gamma,
             bath_k=dev.bath_k, n_init=dev.n_init))))
        for dev in cfg.devices()]
    variance = (protocol.distinguishability_variance(cfg.interferometer)
                + cfg.interferometer.phase_jitter_sigma ** 2)
    out = {}
    for det, (nn, na, nb, coh) in _herald_moments(protocol.pump_stage(cfg).state).items():
        num = (eta_a * eta_b * nn + eta_a * n_b * na + n_a * eta_b * nb).real + n_a * n_b
        out[det] = (float(num), eta_a * eta_b * abs(coh) ** 2 * math.exp(-variance))
    return out
