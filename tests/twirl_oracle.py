"""Stacked-twirl reference for `mechlink.protocol.build_trial_model`.

Each relative-phase blur is applied where it physically happens: the
pump photons' distinguishability twirl on optical A before the pump
combiner, the lock-noise twirl of width 2 sigma on mech B after the
herald, and the read photons' distinguishability twirl on read mode A
before the read combiner.  With ROTATION_NODES nodes per twirl a state
carries the cube of that many terms per pump outcome, so the tests
build `joint` at a reduced node count; the runtime applies one twirl of
the summed variance, which must reproduce it.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from mechlink import protocol
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


def read_probs(mech_state, cfg) -> np.ndarray:
    """`protocol.readout_stage` with the read photons' twirl on read mode A."""
    intf = cfg.interferometer
    dev_a, dev_b = cfg.devices()
    state = protocol._with_vacuum(mech_state, 2)
    state = protocol._beamsplitter(state, MA, 2, 1.0 - dev_a.p_read, phase=math.pi)
    state = protocol._beamsplitter(state, MB, 3, 1.0 - dev_b.p_read,
                                   phase=math.pi - intf.phi0 - intf.delta_phi)
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


def witness_moments(cfg) -> dict:
    """Delayed witness moments from Isserlis sums on the twirled pump state.

    The pump photons' twirl is in the state; only the lock noise's pump
    share is a closed-form factor, which `_delayed_witness_moments`
    applies alone when the config it reads has serrodyne compensation on.
    """
    pump = pump_stage(cfg)
    lock_only = replace(cfg, interferometer=replace(cfg.interferometer, serrodyne=True))
    moments = {det: protocol._witness_moments(pump, det) for det in (1, 2)}
    return {det: protocol._delayed_witness_moments(m, lock_only)
            for det, m in moments.items() if m[0].real > 1e-15}
