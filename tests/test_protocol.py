"""Protocol-stage checks: heralding, delay evolution, readout, witness.

Tests that inspect number-basis states run on the truncated Fock
reference pipeline in `fock_oracle`; the rest exercise the Gaussian
runtime, and TestFockOracleConvergence ties the two together.
"""

import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fock_oracle
import twirl_oracle
from mechlink import campaign, cli, fock, protocol
from mechlink.config import parse_config
from mechlink.devices import (DetectorModel, DeviceParams, InterferometerConfig,
                              ProtocolConfig)
from mechlink.noise import HeatingParams, driven_occupation, occupation

US = 1e-6
CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def shipped(name):
    return parse_config(os.path.join(CONFIG_DIR, name)).protocol


def detector_click_prob(quantum_probs, false_click, detector):
    """Observed click probability of `detector` in one window, false
    positives included, from the window's four outcome probabilities."""
    q = quantum_probs @ protocol.CODE_SLOTS[:4, detector - 1]
    f = false_click[detector - 1]
    return 1.0 - (1.0 - q) * (1.0 - f)


def click_prob(stage, detector):
    return detector_click_prob(stage.quantum_probs, stage.false_click, detector)


def read_given_pump(model):
    """Conditional read-outcome rows P(read | pump) of a trial model's joint."""
    return model.joint / model.joint.sum(axis=1, keepdims=True)


def ideal_config(p_pump=0.007, phi0=0.0, **kw):
    dev = DeviceParams(p_pump=p_pump, p_read=0.034, n_init=0.0, bath_k=0.0)
    return ProtocolConfig(device_a=dev, device_b=dev,
                          interferometer=InterferometerConfig(phi0=phi0),
                          detectors=DetectorModel(), tau=0.0, **kw)


def heralded(pump, detector):
    """Gaussian mechanical state given a click at `detector` (no false clicks)."""
    parts = [st for (c1, c2), st in zip(((0, 0), (1, 0), (0, 1), (1, 1)),
                                        pump.mech_given) if (c1, c2)[detector - 1]]
    weight = np.concatenate([st.weight for st in parts])
    return protocol.GaussianState(weight / weight.sum(),
                                  np.concatenate([st.cov for st in parts]))


def mean_occupation(state, mode):
    """<n> of one mode of a Gaussian state (hbar = 2)."""
    block = state.cov[:, 2 * mode:2 * mode + 2, 2 * mode:2 * mode + 2]
    return float(state.weight @ (0.25 * np.trace(block, axis1=1, axis2=2) - 0.5))


def shared_excitation_vector(register, phase, sign=+1):
    amp = np.zeros(register.dim, dtype=complex)
    amp[register.basis_index([1, 0])] = 1 / math.sqrt(2)
    amp[register.basis_index([0, 1])] = sign * np.exp(1j * phase) / math.sqrt(2)
    return amp


class TestSerrodyne:
    def test_compensation_gives_unit_overlap(self):
        intf = InterferometerConfig(serrodyne=True)
        assert protocol.distinguishability_variance(intf) == 0.0

    def test_zero_detuning_is_identity(self):
        intf = InterferometerConfig(serrodyne=False, delta_omega_m=0.0)
        assert protocol.distinguishability_variance(intf) == 0.0

    def test_overlap_against_quadrature_oracle(self):
        # |integral of |f|^2 e^{i d t}| for a Gaussian envelope, numerically
        sigma_t = 40e-9
        delta = 2 * math.pi * 2.2e6
        ts = np.linspace(-8 * sigma_t, 8 * sigma_t, 20001)
        env = np.exp(-ts**2 / (2 * sigma_t**2))
        env /= np.trapezoid(env, ts)
        oracle = abs(np.trapezoid(env * np.exp(1j * delta * ts), ts))
        assert protocol.envelope_overlap(delta, sigma_t) == pytest.approx(
            oracle, rel=1e-6)
        # a relative phase of this variance damps the exchange coherence
        # to the overlap
        intf = InterferometerConfig(serrodyne=False, delta_omega_m=delta,
                                    envelope_sigma_ns=40.0)
        assert math.exp(-0.5 * protocol.distinguishability_variance(intf)) == pytest.approx(
            oracle, rel=1e-6)

    def test_compensation_off_reduces_fringe_contrast(self):
        # detuning chosen so the overlap is partial rather than negligible
        intf = InterferometerConfig(serrodyne=False,
                                    delta_omega_m=2 * math.pi * 2.0e6,
                                    envelope_sigma_ns=40.0)
        cfg_off = replace(ideal_config(), interferometer=intf)
        cfg_on = ideal_config()
        lam = math.exp(-0.5 * protocol.distinguishability_variance(intf))
        assert 0.1 < lam < 0.9
        m_on = protocol.build_trial_model(cfg_on.with_delta_phi(math.pi))
        m_off = protocol.build_trial_model(cfg_off.with_delta_phi(math.pi))

        def contrast(m):
            gs = [m.g2_exact(i, j) for i in (1, 2) for j in (1, 2)]
            return (max(gs) - min(gs)) / (max(gs) + min(gs))

        assert contrast(m_off) < contrast(m_on)


class TestPumpStageAndHerald:
    def test_symmetric_config_clicks_equally(self):
        pump = protocol.pump_stage(ideal_config())
        assert click_prob(pump, 1) == pytest.approx(
            click_prob(pump, 2), abs=1e-10)

    def test_herald_projects_shared_excitation(self):
        cfg = ideal_config(p_pump=0.004, phi0=0.37)
        pump = fock_oracle.pump_stage(cfg)
        st, _ = fock_oracle.herald(pump, 1)
        target = shared_excitation_vector(st.register, 0.37, +1)
        assert fock.fidelity_pure(st, target) > 0.99

    def test_opposite_detector_flips_sign(self):
        cfg = ideal_config(p_pump=0.004, phi0=0.37)
        pump = fock_oracle.pump_stage(cfg)
        st, _ = fock_oracle.herald(pump, 2)
        target = shared_excitation_vector(st.register, 0.37, -1)
        assert fock.fidelity_pure(st, target) > 0.99

    def test_detector_click_prob_sums_the_clicked_outcomes(self):
        q, false = np.array([0.5, 0.2, 0.1, 0.2]), (0.1, 0.3)
        assert detector_click_prob(q, false, 1) == pytest.approx(1 - 0.6 * 0.9)
        assert detector_click_prob(q, false, 2) == pytest.approx(1 - 0.7 * 0.7)

    def test_blocked_arm_heralds_single_device(self):
        dev = DeviceParams(p_pump=0.007, n_init=0.0, bath_k=0.0)
        blocked = replace(dev, eta_path=0.0)
        cfg = ProtocolConfig(device_a=dev, device_b=blocked,
                             interferometer=InterferometerConfig(),
                             detectors=DetectorModel(), tau=0.0)
        pump = fock_oracle.pump_stage(cfg)
        st, _ = fock_oracle.herald(pump, 1)
        target = np.zeros(st.register.dim, dtype=complex)
        target[st.register.basis_index([1, 0])] = 1.0
        assert fock.fidelity_pure(st, target) > 0.98

    def test_herald_probability_includes_false_positives(self):
        cfg = replace(ideal_config(),
                      detectors=DetectorModel(p_dark_pump=(1e-3, 1e-3)))
        pump = protocol.pump_stage(cfg)
        quantum_only = click_prob(protocol.pump_stage(ideal_config()), 1)
        assert click_prob(pump, 1) > quantum_only

    def test_zero_probability_herald_rejected(self):
        dev = DeviceParams(p_pump=0.0, n_init=0.0, bath_k=0.0)
        cfg = ProtocolConfig(device_a=dev, device_b=dev,
                             interferometer=InterferometerConfig(),
                             detectors=DetectorModel(), tau=0.0)
        pump = fock_oracle.pump_stage(cfg)
        with pytest.raises(protocol.ProtocolError):
            fock_oracle.herald(pump, 1)


class TestEvolveDelay:
    def test_zero_delay_is_identity(self):
        cfg = ideal_config()
        reg = fock.ModeRegister(2, 3)
        st = fock.basis_state(reg, [1, 0])
        assert fock_oracle.evolve_delay(st, 0.0, cfg) is st

    def test_pure_decay_scales_occupation(self):
        dev = DeviceParams(p_pump=0.004, n_init=0.0, bath_k=0.0,
                           gamma_decay=1 / (4.0 * US))
        cfg = ProtocolConfig(device_a=dev, device_b=dev,
                             interferometer=InterferometerConfig(),
                             detectors=DetectorModel())
        reg = fock.ModeRegister(2, 3)
        st = fock.basis_state(reg, [1, 1])
        out = fock_oracle.evolve_delay(st, 4.0 * US, cfg)
        assert fock.number_expectation(out, 0) == pytest.approx(
            math.exp(-1), abs=1e-6)

    def test_heating_tracks_rate_equation(self):
        dev = DeviceParams(p_pump=0.004, n_init=0.05, n_start=0.02,
                           bath_k=1.2e6, bath_gamma=1 / (0.5 * US),
                           gamma_decay=1 / (4.0 * US))
        cfg = ProtocolConfig(device_a=dev, device_b=dev,
                             interferometer=InterferometerConfig(),
                             detectors=DetectorModel())
        reg = fock.ModeRegister(2, 9)
        st = fock.product_thermal_state(reg, [0.02, 0.02], tol=1e-4)
        heat = HeatingParams(decay=dev.gamma_decay, bath_gamma=dev.bath_gamma,
                             bath_k=dev.bath_k, n_init=dev.n_init)
        for tau in (123e-9, 1.0 * US, 2.5 * US):
            out = fock_oracle.evolve_delay(st, tau, cfg)
            assert fock.number_expectation(out, 0) == pytest.approx(
                occupation(tau, heat, 0.02), rel=0.02)

    def test_thermal_input_tracks_driven_occupation(self):
        # one exact thermal attenuator per mode: a thermal input at n0
        # leaves at eta n0 + driven_occupation, the rate-equation value
        dev = DeviceParams(p_pump=0.004, n_init=0.05, n_start=0.02,
                           bath_k=1.2e6, bath_gamma=1 / (0.5 * US),
                           gamma_decay=1 / (4.0 * US))
        cfg = ProtocolConfig(device_a=dev, device_b=replace(dev, bath_k=0.6e6),
                             interferometer=InterferometerConfig(),
                             detectors=DetectorModel())
        st = protocol._thermal([0.02, 0.03])
        for tau in (123e-9, 1.0 * US, 3.0 * US):
            out = protocol.evolve_delay(st, tau, cfg)
            for mode, n0, d in ((0, 0.02, cfg.device_a), (1, 0.03, cfg.device_b)):
                heat = HeatingParams(decay=d.gamma_decay, bath_gamma=d.bath_gamma,
                                     bath_k=d.bath_k, n_init=d.n_init)
                eta = math.exp(-d.gamma_decay * tau)
                assert abs(mean_occupation(out, mode)
                           - (eta * n0 + driven_occupation(tau, heat))) < 1e-12
                assert abs(mean_occupation(out, mode)
                           - occupation(tau, heat, n0)) < 1e-12

    def test_full_cycle_restores_relative_phase(self):
        cfg = ideal_config(p_pump=0.004)
        pump = fock_oracle.pump_stage(cfg)
        st, _ = fock_oracle.herald(pump, 1)
        period = 2 * math.pi / cfg.interferometer.delta_omega_m
        coh0 = fock.mode_moment(st, [(0, True), (1, False)])
        evolved = fock_oracle.evolve_delay(st, period, cfg)
        coh1 = fock.mode_moment(evolved, [(0, True), (1, False)])
        # one full cycle returns the phase; decay only shrinks the magnitude
        assert math.isclose(np.angle(coh1), np.angle(coh0), abs_tol=1e-6)


class TestReadoutFringe:
    def test_extremum_routes_to_one_detector(self):
        cfg = ideal_config(p_pump=0.004, phi0=0.3)
        st = heralded(protocol.pump_stage(cfg), 1)
        rd = protocol.readout_stage(st, cfg.with_delta_phi(-0.6))
        assert click_prob(rd, 1) > 100 * click_prob(rd, 2)

    def test_fringe_period_is_two_pi(self):
        cfg = ideal_config(p_pump=0.004, phi0=0.3)
        st = heralded(protocol.pump_stage(cfg), 1)
        base = protocol.readout_stage(st, cfg.with_delta_phi(0.4))
        wrapped = protocol.readout_stage(st, cfg.with_delta_phi(0.4 + 2 * math.pi))
        assert click_prob(base, 1) == pytest.approx(
            click_prob(wrapped, 1), rel=1e-9)

    def test_fringe_is_sinusoidal_with_high_visibility(self):
        cfg = ideal_config(p_pump=0.004)
        st = heralded(protocol.pump_stage(cfg), 1)
        phis = np.linspace(0, 2 * math.pi, 12, endpoint=False)
        rates = np.array([click_prob(protocol.readout_stage(st, cfg.with_delta_phi(p)), 1)
                          for p in phis])
        mean = rates.mean()
        vis = (rates.max() - rates.min()) / (rates.max() + rates.min())
        assert vis > 0.97
        # A(1 + V cos theta) shape: residual from the best cosine is small
        target = mean * (1 + vis * np.cos(phis - phis[np.argmax(rates)]))
        assert np.max(np.abs(rates - target)) < 0.05 * mean

    def test_opposite_heralds_swap_fringe_extrema(self):
        # noiseless symmetric setup: the fringes conditioned on the two
        # heralding detectors are exactly half a period apart, so at an
        # extremum the conditional read rates swap detectors
        cfg = ideal_config(p_pump=0.004, phi0=0.3)
        pump = protocol.pump_stage(cfg)
        plus, minus = heralded(pump, 1), heralded(pump, 2)
        rd_plus = protocol.readout_stage(plus, cfg.with_delta_phi(-0.6))
        rd_minus = protocol.readout_stage(minus, cfg.with_delta_phi(-0.6))
        assert click_prob(rd_plus, 1) == pytest.approx(
            click_prob(rd_minus, 2), rel=1e-9)
        assert click_prob(rd_plus, 2) == pytest.approx(
            click_prob(rd_minus, 1), rel=1e-9)

    def test_delay_fringe_period_matches_frequency_difference(self):
        cfg = ideal_config(p_pump=0.004)
        st = heralded(protocol.pump_stage(cfg), 1)
        period = 2 * math.pi / cfg.interferometer.delta_omega_m
        r0 = protocol.readout_stage(protocol.evolve_delay(st, 123e-9, cfg), cfg)
        r1 = protocol.readout_stage(protocol.evolve_delay(st, 123e-9 + period, cfg), cfg)
        assert click_prob(r0, 1) == pytest.approx(
            click_prob(r1, 1), rel=2e-2)
        assert period == pytest.approx(22.22e-9, abs=0.01e-9)


class TestWitnessFromState:
    def test_ideal_shared_excitation_has_zero_witness(self):
        reg = fock.ModeRegister(2, 3)
        amp = shared_excitation_vector(reg, 0.2)
        st = fock.pure_state(reg, amp)
        assert fock_oracle.witness_from_state(st) == pytest.approx(0.0, abs=1e-12)

    def test_dephased_mixture_has_no_coherence(self):
        reg = fock.ModeRegister(2, 3)
        mat = 0.5 * (fock.basis_state(reg, [1, 0]).mat
                     + fock.basis_state(reg, [0, 1]).mat)
        st = fock.DensityMatrix(reg, mat)
        with pytest.raises(protocol.ProtocolError, match="no coherence"):
            fock_oracle.witness_from_state(st)

    def test_witness_vs_counting_bound_at_parameter_points(self):
        # the exact moment ratio never exceeds the counting-statistics bound
        from mechlink.stats import witness_from_g2
        GA, gam = 1 / (4.0 * US), 1 / (0.5 * US)
        points = []
        for n_init in (0.0, 0.06, 0.11):
            for p_pump in (0.004, 0.008):
                points.append((n_init, p_pump, 0.0, 0.0))
        points += [(0.08, 0.006, 0.037, 5e-5), (0.05, 0.005, 0.02, 2e-5),
                   (0.11, 0.007, 0.05, 8e-5), (0.02, 0.003, 0.01, 1e-5)]
        assert len(points) >= 10
        for n_init, p_pump, n_leak, p_dark in points:
            dev = DeviceParams(p_pump=p_pump, p_read=0.034, n_init=n_init,
                               bath_k=0.0, gamma_decay=GA, bath_gamma=gam,
                               n_leak=n_leak)
            cfg = ProtocolConfig(
                device_a=dev, device_b=dev,
                interferometer=InterferometerConfig(),
                detectors=DetectorModel(p_dark_pump=(p_dark, p_dark),
                                        p_dark_read=(p_dark, p_dark)),
                tau=123e-9)
            model = protocol.build_trial_model(cfg.with_delta_phi(1.9375 * math.pi))
            for det in (1, 2):
                r_exact = model.exact_witness(det)
                bound = witness_from_g2(model.g2_exact(1, det),
                                        model.g2_exact(2, det))
                assert r_exact <= bound + 1e-9, (
                    f"witness inequality violated at {(n_init, p_pump, n_leak, p_dark)}")

    def test_closed_form_witness_matches_fock_delay(self):
        # oracle: the intensity-weighted herald taken through the Fock
        # delay, then the moment ratio of the evolved state
        cfg = shipped("entangle_stats.cfg")
        assert cfg.interferometer.phase_jitter_sigma == 0.0   # no lock-noise damping
        closed = {1: [], 2: []}
        for mech_cutoff in (5, 7, 9):
            model = protocol.build_trial_model(cfg)
            pump = fock_oracle.pump_stage(cfg, mech_cutoff=mech_cutoff)
            for det in (1, 2):
                st, _ = fock_oracle.number_weighted_herald(pump, det)
                oracle = fock_oracle.witness_from_state(
                    fock_oracle.evolve_delay(st, cfg.tau, cfg))
                assert model.exact_witness(det) == pytest.approx(oracle, rel=1e-4)
                closed[det].append(model.exact_witness(det))
        for values in closed.values():
            assert max(values) - min(values) < 1e-6


class TestCalibratedBudget:
    def test_aggregate_rates_with_full_detection_budget(self):
        model = protocol.build_trial_model(shipped("entangle_realistic.cfg"))
        herald = model.herald_prob()
        joint = sum(model.coincidence_prob(i, j)
                    for i in (1, 2) for j in (1, 2))
        assert herald == pytest.approx(2.7e-4, rel=0.15)
        assert joint == pytest.approx(2.8e-7, rel=0.20)
        # read click probability per heralded trial, as a consistency ratio
        assert joint / herald == pytest.approx(2.8e-7 / 2.7e-4, rel=0.20)


class TestBalance:
    def test_symmetric_needs_no_attenuation(self):
        arm, att = protocol.balance(ideal_config())
        assert arm == "none" and att == 1.0

    def test_path_asymmetry_attenuates_brighter_arm(self):
        dev = DeviceParams(p_pump=0.007, n_init=0.0, bath_k=0.0, eta_path=1.0)
        dim = replace(dev, eta_path=0.8)
        cfg = ProtocolConfig(device_a=dim, device_b=dev,
                             interferometer=InterferometerConfig(),
                             detectors=DetectorModel(), tau=0.0)
        arm, att = protocol.balance(cfg)
        assert arm == "B"
        assert att == pytest.approx(0.8, abs=0.01)

    def test_post_balance_flux_within_two_percent(self):
        dev_a = DeviceParams(p_pump=0.0056, n_init=0.0, bath_k=0.0, eta_path=0.61)
        dev_b = DeviceParams(p_pump=0.0080, n_init=0.0, bath_k=0.0, eta_path=0.52)
        cfg = ProtocolConfig(device_a=dev_a, device_b=dev_b,
                             interferometer=InterferometerConfig(),
                             detectors=DetectorModel(), tau=0.0)
        arm, att = protocol.balance(cfg)
        intf = replace(cfg.interferometer, balance_arm=arm,
                       balance_attenuation=att)
        fa, fb = protocol._per_device_flux(replace(cfg, interferometer=intf))
        assert abs(fa - fb) / max(fa, fb) < 0.02

    def test_dead_arm_is_rejected(self):
        dev = DeviceParams(p_pump=0.007, n_init=0.0, bath_k=0.0)
        dead = replace(dev, eta_path=0.0)
        cfg = ProtocolConfig(device_a=dev, device_b=dead,
                             interferometer=InterferometerConfig(),
                             detectors=DetectorModel(), tau=0.0)
        with pytest.raises(protocol.ProtocolError, match="unreachable balance"):
            protocol.balance(cfg)


class TestTrialModel:
    def test_click_marginals_sum_their_joint_cells(self):
        # outcome_index 1 and 3 click detector 1, 2 and 3 detector 2
        m = protocol.build_trial_model(shipped("entangle_stats.cfg"))
        clicks = {1: [1, 3], 2: [2, 3]}
        for d in (1, 2):
            assert m.pump_click_prob(d) == pytest.approx(
                m.joint[clicks[d], :].sum(), rel=1e-15)
            assert m.read_click_prob(d) == pytest.approx(
                m.joint[:, clicks[d]].sum(), rel=1e-15)
        for i in (1, 2):
            for j in (1, 2):
                assert m.coincidence_prob(i, j) == pytest.approx(
                    m.joint[np.ix_(clicks[j], clicks[i])].sum(), rel=1e-15)

    def test_detector_symmetry_of_noiseless_fringe(self):
        # heralds on 1 vs 2 give fringes exactly pi out of phase: at a fringe
        # extremum the conditional read rates swap detectors
        cfg = ideal_config(p_pump=0.004)
        m = protocol.build_trial_model(cfg.with_delta_phi(1.9375 * math.pi))
        assert m.g2_exact(1, 1) == pytest.approx(m.g2_exact(2, 2), rel=1e-6)
        assert m.g2_exact(2, 1) == pytest.approx(m.g2_exact(1, 2), rel=1e-6)

    def test_cutoff_convergence_at_pump_scale(self):
        # with excitation only from the drives, observables converge fast
        cfg = ideal_config(p_pump=0.007).with_delta_phi(0.4)
        m3 = fock_oracle.trial_model(cfg, cutoff=3, mech_cutoff=3)
        m4 = fock_oracle.trial_model(cfg, cutoff=4, mech_cutoff=4)
        assert abs(m3.herald_prob() - m4.herald_prob()) < 1e-6
        for i in (1, 2):
            for j in (1, 2):
                assert abs(m3.coincidence_prob(i, j)
                           - m4.coincidence_prob(i, j)) < 1e-6
                assert abs(m3.g2_exact(i, j) - m4.g2_exact(i, j)) < 1e-6 * max(
                    m3.g2_exact(i, j), 1.0)

    def test_jitter_damps_fringe_contrast(self):
        cfg = ideal_config(p_pump=0.004)
        jit = replace(cfg, interferometer=replace(
            cfg.interferometer, phase_jitter_sigma=0.6))
        m0 = protocol.build_trial_model(cfg.with_delta_phi(1.9375 * math.pi))
        m1 = protocol.build_trial_model(jit.with_delta_phi(1.9375 * math.pi))

        def contrast(m):
            gs = [m.g2_exact(i, j) for i in (1, 2) for j in (1, 2)]
            return (max(gs) - min(gs)) / (max(gs) + min(gs))

        assert contrast(m1) < 0.8 * contrast(m0)

    @pytest.mark.parametrize("tau", [123e-9, 1000e-9])
    @pytest.mark.parametrize("sigma", [0.19, 0.6, 1.5])
    def test_lock_noise_twirl_matches_gauss_hermite_average(self, sigma, tau):
        # reference: one lock offset theta per trial shifts phi0 for the
        # pump imprint and the read drive alike, so average sigma = 0
        # models over phi0 + theta with a 61-node Gauss-Hermite rule
        cfg = shipped("time_sweep.cfg").with_tau(tau)
        intf = cfg.interferometer

        def joint(phi0, jitter):
            return protocol.build_trial_model(replace(cfg, interferometer=replace(
                intf, phi0=phi0, phase_jitter_sigma=jitter))).joint

        x, w = np.polynomial.hermite.hermgauss(61)
        reference = sum(wk / math.sqrt(math.pi)
                        * joint(intf.phi0 + math.sqrt(2.0) * sigma * xk, 0.0)
                        for xk, wk in zip(x, w))
        assert np.max(np.abs(joint(intf.phi0, sigma) - reference)) <= 1e-12

    def test_lock_phase_does_not_reach_pump_table(self):
        # each device's optical state after the pump is thermal and
        # phase-invariant, which is what lets the lock noise act as one
        # rotation of mech B
        cfg = shipped("time_sweep.cfg")
        base = protocol.pump_stage(cfg).quantum_probs
        for phi0 in (0.3, 1.7, math.pi, 5.9):
            shifted = replace(cfg, interferometer=replace(cfg.interferometer, phi0=phi0))
            assert np.array_equal(protocol.pump_stage(shifted).quantum_probs, base)
        marginals = [
            protocol.build_trial_model(
                replace(cfg, interferometer=replace(cfg.interferometer,
                                                    phase_jitter_sigma=sigma))
                .with_delta_phi(delta_phi).with_tau(tau)).joint.sum(axis=1)
            for sigma in (0.0, 0.6, 3.0) for delta_phi in (0.0, 1.9375 * math.pi)
            for tau in (123e-9, 1000e-9, 3000e-9)]
        assert np.max(np.abs(np.array(marginals) - marginals[0])) <= 1e-14

    def test_joint_table_is_a_distribution(self):
        cfg = ideal_config()
        m = protocol.build_trial_model(cfg)
        assert m.joint.min() >= 0
        assert m.joint.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(read_given_pump(m).sum(axis=1), 1.0, atol=1e-12)


class TestFockOracleConvergence:
    """The truncated Fock tables approach the Gaussian ones from below."""

    def test_stats_tables_converge_with_cutoffs(self):
        cfg = shipped("entangle_stats.cfg")
        exact = protocol.build_trial_model(cfg)
        coarse = fock_oracle.trial_model(cfg, cutoff=3, mech_cutoff=5)
        fine = fock_oracle.trial_model(cfg, cutoff=4, mech_cutoff=7)
        rows = exact.joint.sum(axis=1) > 1e-6
        assert rows.sum() == 4
        g = read_given_pump(exact)[rows]
        err_coarse = np.abs(read_given_pump(coarse)[rows] - g)
        err_fine = np.abs(read_given_pump(fine)[rows] - g)
        assert np.all(err_fine < err_coarse)
        assert np.all(err_fine <= 1e-4 * g)

    def test_time_sweep_rows_converge_at_one_microsecond(self):
        # the heralded read rows are where truncation at the hot 1 us
        # occupation bites; one delay point keeps the cutoff-13 run short
        cfg = shipped("time_sweep.cfg").with_tau(1000e-9)
        exact = read_given_pump(protocol.build_trial_model(cfg))
        coarse = read_given_pump(fock_oracle.trial_model(cfg, cutoff=3, mech_cutoff=10))
        fine = read_given_pump(fock_oracle.trial_model(cfg, cutoff=3, mech_cutoff=13))
        for pump_idx in (1, 2, 3):              # single- and double-click heralds
            for read_idx in (1, 2, 3):          # read rows with a click
                e = exact[pump_idx, read_idx]
                assert (abs(fine[pump_idx, read_idx] - e)
                        < abs(coarse[pump_idx, read_idx] - e)), (pump_idx, read_idx)
                assert fine[pump_idx, read_idx] < e    # truncation crops mass


def _separable_configs():
    base = dict(p_read=0.034, gamma_decay=1 / (4.0 * US),
                bath_gamma=1 / (0.5 * US), bath_k=0.0)
    dev = DeviceParams(p_pump=0.006, n_init=0.05, **base)
    dark_read = DetectorModel(p_dark_read=(5e-5, 5e-5))
    return {
        "thermal darks": ProtocolConfig(
            device_a=DeviceParams(p_pump=0.0, n_init=0.11, **base),
            device_b=DeviceParams(p_pump=0.0, n_init=0.11, **base),
            interferometer=InterferometerConfig(),
            detectors=DetectorModel(p_dark_pump=(2e-4, 2e-4),
                                    p_dark_read=(5e-5, 5e-5)), tau=123e-9),
        "blocked arm": ProtocolConfig(
            device_a=dev, device_b=replace(dev, eta_path=0.0),
            interferometer=InterferometerConfig(), detectors=dark_read, tau=123e-9),
        "lock noise": ProtocolConfig(
            device_a=dev, device_b=dev,
            interferometer=InterferometerConfig(phase_jitter_sigma=3.0),
            detectors=dark_read, tau=123e-9),
        "serrodyne off": ProtocolConfig(
            device_a=dev, device_b=dev,
            interferometer=InterferometerConfig(serrodyne=False),
            detectors=dark_read, tau=123e-9),
    }


class TestGaussianTables:
    @pytest.mark.parametrize("name", ["entangle_stats.cfg", "entangle_realistic.cfg",
                                      "time_sweep.cfg", "thermal darks", "blocked arm",
                                      "lock noise", "serrodyne off", "jitter nodes"])
    def test_tables_are_distributions(self, name):
        if name.endswith(".cfg"):
            cfg = shipped(name).with_tau(3000e-9 if name == "time_sweep.cfg" else 123e-9)
        elif name == "jitter nodes":
            cfg = replace(ideal_config(), interferometer=InterferometerConfig(
                phase_jitter_sigma=0.6))
        else:
            cfg = _separable_configs()[name]
        m = protocol.build_trial_model(cfg.with_delta_phi(1.9375 * math.pi))
        assert m.joint.min() >= 0.0
        assert read_given_pump(m).min() >= 0.0
        assert abs(m.joint.sum() - 1.0) <= 1e-12
        assert np.all(np.abs(read_given_pump(m).sum(axis=1) - 1.0) <= 1e-12)
        assert m.truncation_budget == 0.0

    @pytest.mark.parametrize("name", ["thermal darks", "blocked arm", "lock noise",
                                      "serrodyne off"])
    def test_separable_configs_keep_exact_witness_floor(self, name):
        # the witness bound from the exact correlations, and the moment
        # ratio where a coherence survives, stay at or above one; no fringe
        # contrast or no coherence leaves them unbounded
        from mechlink.stats import StatsError, witness_from_g2
        m = protocol.build_trial_model(
            _separable_configs()[name].with_delta_phi(1.9375 * math.pi))
        for det in (1, 2):
            try:
                assert witness_from_g2(m.g2_exact(1, det), m.g2_exact(2, det)) >= 1.0
            except StatsError:
                pass
            try:
                assert m.exact_witness(det) >= 1.0
            except protocol.ProtocolError:
                pass

    @pytest.mark.parametrize("case", ["jitter 0.19", "serrodyne off", "jitter 3.0",
                                      "partial overlap, jitter 0.6"])
    def test_rotation_quadrature_order_is_converged(self, case, monkeypatch):
        cfg = {"jitter 0.19": shipped("time_sweep.cfg").with_tau(1000e-9),
               "serrodyne off": _separable_configs()["serrodyne off"],
               "jitter 3.0": _separable_configs()["lock noise"],
               "partial overlap, jitter 0.6": photon_case(
                   shipped("time_sweep.cfg").with_tau(1000e-9), "off, 4 MHz", 0.6)}[case]
        base = protocol.build_trial_model(cfg)
        monkeypatch.setattr(protocol, "ROTATION_NODES", 2 * protocol.ROTATION_NODES)
        doubled = protocol.build_trial_model(cfg)
        assert np.max(np.abs(doubled.joint - base.joint)) <= 1e-12
        # conditional rows divide by the pump marginal, which magnifies the
        # rounding of rare heralds; compare the well-populated ones
        rows = base.joint.sum(axis=1) > 1e-3
        assert np.max(np.abs(read_given_pump(doubled)[rows]
                             - read_given_pump(base)[rows])) <= 1e-12
        for det in base.witness_moments:
            assert doubled.witness_moments[det] == pytest.approx(
                base.witness_moments[det], rel=1e-12)

    def test_click_table_deficits_fail_loudly(self):
        # rounding-level negatives are exact zeros; nothing is renormalized
        table = np.array([0.5, 0.3, 0.2 + 1e-16, -1e-16])
        assert list(protocol._checked_table(table, 1.0, "t")) == [0.5, 0.3, 0.2 + 1e-16, 0.0]
        with pytest.raises(protocol.ProtocolError, match="most negative entry -1.000e-09"):
            protocol._checked_table(np.array([0.5, 0.5, 1e-9, -1e-9]), 1.0, "t")
        with pytest.raises(protocol.ProtocolError, match="normalization deficit -1.000e-06"):
            protocol._checked_table(np.array([0.5, 0.3, 0.2 - 1e-6, 0.0]), 1.0, "t")


PHOTON_CASES = {
    "serrodyne on": dict(serrodyne=True),
    "off, 45 MHz": dict(serrodyne=False),
    "off, 2 MHz": dict(serrodyne=False, delta_omega_m=2 * math.pi * 2e6,
                       envelope_sigma_ns=40.0),
    "off, 4 MHz": dict(serrodyne=False, delta_omega_m=2 * math.pi * 4e6,
                       envelope_sigma_ns=40.0),
}


def photon_case(cfg, case, sigma):
    """`cfg` with the photon overlap of `case` and lock noise `sigma`; the
    2 and 4 MHz detunings leave overlaps 0.88 and 0.60, 45 MHz 1.7e-28."""
    return replace(cfg, interferometer=replace(
        cfg.interferometer, phase_jitter_sigma=sigma, **PHOTON_CASES[case]))


class TestOneRelativePhaseTwirl:
    """The runtime's one twirl of summed variance against the three stacked
    twirls of `twirl_oracle`, applied where each blur happens."""

    BASES = (("time_sweep.cfg", 1000e-9), ("entangle_realistic.cfg", 123e-9))

    def configs(self, case, sigma):
        return [photon_case(shipped(name).with_tau(tau), case, sigma)
                for name, tau in self.BASES]

    @pytest.mark.parametrize("sigma", [0.0, 0.19, 0.6])
    @pytest.mark.parametrize("case", list(PHOTON_CASES))
    def test_merged_joint_matches_stacked_twirls(self, case, sigma, monkeypatch):
        # 16 nodes keep one stacked build (16^3 terms per pump outcome)
        # under 0.1 s; on one grid the merged and stacked weights agree
        # in every Fourier mode, so they must agree to rounding
        monkeypatch.setattr(protocol, "ROTATION_NODES", 16)
        for cfg in self.configs(case, sigma):
            merged = protocol.build_trial_model(cfg).joint
            assert np.max(np.abs(merged - twirl_oracle.joint(cfg))) <= 1e-14

    @pytest.mark.parametrize("case", list(PHOTON_CASES))
    def test_pump_photon_twirl_leaves_pump_table_alone(self, case):
        for cfg in self.configs(case, 0.0):
            assert np.max(np.abs(twirl_oracle.pump_stage(cfg).quantum_probs
                                 - protocol.pump_stage(cfg).quantum_probs)) <= 1e-15

    @pytest.mark.parametrize("sigma", [0.0, 0.19, 0.6])
    @pytest.mark.parametrize("case", list(PHOTON_CASES))
    def test_pump_overlap_factor_matches_isserlis_sums(self, case, sigma):
        # reference: the moments of the pump state twirled on optical A;
        # at 45 MHz the exact coherence is ~1e-57 and the twirled sums
        # read ~5e-34 of trapezoid rounding, both below the witness floor
        for cfg in self.configs(case, sigma):
            model = protocol.build_trial_model(cfg)
            reference = twirl_oracle.witness_moments(cfg)
            assert reference.keys() == model.witness_moments.keys() == {1, 2}
            for det in (1, 2):
                (num, coh2), (num_ref, coh2_ref) = model.witness_moments[det], reference[det]
                assert num == pytest.approx(num_ref, rel=1e-12)
                if max(coh2, coh2_ref) > 1e-12:
                    assert coh2 == pytest.approx(coh2_ref, rel=1e-12)
                    continue
                assert case == "off, 45 MHz"
                for moments in (model.witness_moments, reference):
                    with pytest.raises(protocol.ProtocolError, match="no coherence"):
                        protocol.TrialModel(model.joint, cfg, moments).exact_witness(det)


@st.composite
def protocol_configs(draw):
    """A ProtocolConfig anywhere inside the validation guards; `at_setting`
    picks its (delta_phi, tau, lock sigma).  The decay, bath and frequency
    constants keep their defaults."""
    unit, dark = st.floats(0.0, 1.0), st.floats(0.0, 1e-2)

    def device():
        return DeviceParams(p_pump=draw(st.floats(0.0, 0.05)), p_read=draw(unit),
                            eta_path=draw(unit), n_init=draw(st.floats(0.0, 0.2)),
                            n_leak=draw(st.floats(0.0, 0.1)))

    scale = draw(st.floats(0.05, 2.0))
    eta = st.floats(0.0, min(1.0, 1.0 / scale))
    detectors = DetectorModel(eta=(draw(eta), draw(eta)),
                              p_dark_pump=(draw(dark), draw(dark)),
                              p_dark_read=(draw(dark), draw(dark)),
                              read_eta_scale=scale)
    intf = InterferometerConfig(phi0=draw(st.floats(0.0, 2 * math.pi)),
                                splitter_deviation=draw(st.floats(0.0, 0.1)),
                                balance_arm=draw(st.sampled_from(["A", "B", "none"])),
                                balance_attenuation=draw(unit),
                                serrodyne=draw(st.booleans()))
    return ProtocolConfig(device_a=device(), device_b=device(), interferometer=intf,
                          detectors=detectors)


def at_setting(cfg, delta_phi, tau, sigma):
    return replace(cfg, interferometer=replace(
        cfg.interferometer, phase_jitter_sigma=sigma)).with_delta_phi(delta_phi).with_tau(tau)


setting_draws = st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.0, 3e-6),
                          st.floats(0.0, math.pi))


class TestRandomConfigs:
    @given(cfg=protocol_configs(), first=setting_draws, second=setting_draws)
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_joint_is_a_distribution_with_a_setting_free_pump_marginal(
            self, cfg, first, second):
        tables = [protocol.build_trial_model(at_setting(cfg, *s)).joint
                  for s in (first, second)]
        for joint in tables:
            assert joint.min() >= 0.0
            assert abs(joint.sum() - 1.0) <= 1e-12
        assert np.max(np.abs(tables[1].sum(axis=1) - tables[0].sum(axis=1))) <= 1e-14

    @given(cfg=protocol_configs(), setting=setting_draws)
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_sampled_counts_lie_within_binomial_bounds(self, cfg, setting):
        model = protocol.build_trial_model(at_setting(cfg, *setting))
        n = 3 * campaign.CHUNK_TRIALS + 1234
        counts = campaign.code_counts(model, n, seed=1)
        p = model.joint.T.ravel()
        # Bernstein: P(|X - n p| >= t) <= 2 exp(-t^2 / (2 n p (1 - p) + 2 t / 3)),
        # so over 150 examples of 16 codes a false failure has probability
        # below 1e-6
        log_term = math.log(2 * 150 * 16 / 1e-6)
        t = log_term / 3 + np.sqrt((log_term / 3) ** 2 + 2 * n * p * (1 - p) * log_term)
        assert counts.sum() == n
        assert np.all(np.abs(counts - n * p) <= t)


class TestSeparableTwins:
    def test_unequal_read_darks_raise_the_flag(self):
        # a protocol_configs() draw whose read detectors differ only in
        # their darks: 1e-3 a window pull g2[r2, p] toward 1 while g2[r1, p]
        # keeps the device correlation, so the bound of a separable twin
        # reads far below 1, as does the config's own
        dev = DeviceParams(p_pump=0.01, p_read=0.034, eta_path=1.0, n_init=0.0,
                           n_leak=0.0)
        cfg = ProtocolConfig(device_a=dev, device_b=dev,
                             interferometer=InterferometerConfig(),
                             detectors=DetectorModel(p_dark_read=(0.0, 1e-3)))
        doc = cli._separable_bounds(cfg, 1.0)
        assert doc["separable_bound_det1"] < 0.1
        assert doc["separable_bound_det2"] < 0.1
        assert doc["separable_below_threshold"] is True
        assert cli._bound(protocol.build_trial_model(cfg), 2) < 1.0

    @given(cfg=protocol_configs())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_dephased_twin_keeps_the_bound_or_raises_the_flag(self, cfg):
        dephased = replace(cfg, interferometer=replace(cfg.interferometer,
                                                       phase_jitter_sigma=math.inf))
        doc = cli._separable_bounds(dephased, 1.0)
        model = protocol.build_trial_model(dephased)
        for det in (1, 2):
            bound = cli._bound(model, det)
            if bound is None:
                continue
            assert bound >= doc[f"separable_bound_det{det}"]
            assert bound >= 1.0 or doc["separable_below_threshold"]
