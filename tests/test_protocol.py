"""Protocol-stage checks: heralding, delay evolution, readout, witness."""

import math
from dataclasses import replace

import numpy as np
import pytest

from mechlink import fock, protocol
from mechlink.devices import (DetectorModel, DeviceParams, InterferometerConfig,
                              ProtocolConfig)
from mechlink.noise import HeatingParams, occupation

US = 1e-6


def ideal_config(p_pump=0.007, phi0=0.0, **kw):
    dev = DeviceParams(p_pump=p_pump, p_read=0.034, n_init=0.0, bath_k=0.0)
    return ProtocolConfig(device_a=dev, device_b=dev,
                          interferometer=InterferometerConfig(phi0=phi0),
                          detectors=DetectorModel(), tau=0.0, **kw)


def shared_excitation_vector(register, phase, sign=+1):
    amp = np.zeros(register.dim, dtype=complex)
    amp[register.basis_index([1, 0])] = 1 / math.sqrt(2)
    amp[register.basis_index([0, 1])] = sign * np.exp(1j * phase) / math.sqrt(2)
    return amp


class TestSerrodyne:
    def test_compensation_gives_unit_overlap(self):
        intf = InterferometerConfig(serrodyne=True)
        s = protocol.serrodyne_compensation(intf, "pump")
        assert s.overlap == 1.0
        assert s.offset_a == intf.delta_omega_m
        assert protocol.serrodyne_compensation(intf, "read").offset_a == -intf.delta_omega_m

    def test_zero_detuning_is_identity(self):
        intf = InterferometerConfig(serrodyne=False, delta_omega_m=0.0)
        s = protocol.serrodyne_compensation(intf, "pump")
        assert s.overlap == 1.0

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

    def test_compensation_off_reduces_fringe_contrast(self):
        # detuning chosen so the overlap is partial rather than negligible
        intf = InterferometerConfig(serrodyne=False,
                                    delta_omega_m=2 * math.pi * 2.0e6,
                                    envelope_sigma_ns=40.0)
        cfg_off = replace(ideal_config(), interferometer=intf)
        cfg_on = ideal_config()
        lam = protocol.serrodyne_compensation(intf, "pump").overlap
        assert 0.1 < lam < 0.9
        m_on = protocol.build_trial_model(cfg_on, delta_phi=math.pi)
        m_off = protocol.build_trial_model(cfg_off, delta_phi=math.pi)

        def contrast(m):
            gs = [m.g2_exact(i, j) for i in (1, 2) for j in (1, 2)]
            return (max(gs) - min(gs)) / (max(gs) + min(gs))

        assert contrast(m_off) < contrast(m_on)


class TestPumpStageAndHerald:
    def test_symmetric_config_clicks_equally(self):
        pump = protocol.pump_stage(ideal_config())
        assert pump.detector_click_prob(1) == pytest.approx(
            pump.detector_click_prob(2), abs=1e-10)

    def test_herald_projects_shared_excitation(self):
        cfg = ideal_config(p_pump=0.004, phi0=0.37)
        pump = protocol.pump_stage(cfg)
        st, _ = protocol.herald(pump, 1)
        target = shared_excitation_vector(st.register, 0.37, +1)
        assert fock.fidelity_pure(st, target) > 0.99

    def test_opposite_detector_flips_sign(self):
        cfg = ideal_config(p_pump=0.004, phi0=0.37)
        pump = protocol.pump_stage(cfg)
        st, _ = protocol.herald(pump, 2)
        target = shared_excitation_vector(st.register, 0.37, -1)
        assert fock.fidelity_pure(st, target) > 0.99

    def test_blocked_arm_heralds_single_device(self):
        dev = DeviceParams(p_pump=0.007, n_init=0.0, bath_k=0.0)
        blocked = replace(dev, eta_path=0.0)
        cfg = ProtocolConfig(device_a=dev, device_b=blocked,
                             interferometer=InterferometerConfig(),
                             detectors=DetectorModel(), tau=0.0)
        pump = protocol.pump_stage(cfg)
        st, _ = protocol.herald(pump, 1)
        target = np.zeros(st.register.dim, dtype=complex)
        target[st.register.basis_index([1, 0])] = 1.0
        assert fock.fidelity_pure(st, target) > 0.98

    def test_herald_probability_includes_false_positives(self):
        cfg = replace(ideal_config(),
                      detectors=DetectorModel(p_dark_pump=(1e-3, 1e-3)))
        pump = protocol.pump_stage(cfg)
        quantum_only = protocol.pump_stage(ideal_config()).detector_click_prob(1)
        assert pump.detector_click_prob(1) > quantum_only

    def test_zero_probability_herald_rejected(self):
        dev = DeviceParams(p_pump=0.0, n_init=0.0, bath_k=0.0)
        cfg = ProtocolConfig(device_a=dev, device_b=dev,
                             interferometer=InterferometerConfig(),
                             detectors=DetectorModel(), tau=0.0)
        pump = protocol.pump_stage(cfg)
        with pytest.raises(protocol.ProtocolError):
            protocol.herald(pump, 1)


class TestEvolveDelay:
    def test_zero_delay_is_identity(self):
        cfg = ideal_config()
        reg = fock.ModeRegister(2, 3)
        st = fock.basis_state(reg, [1, 0])
        assert protocol.evolve_delay(st, 0.0, cfg) is st

    def test_pure_decay_scales_occupation(self):
        dev = DeviceParams(p_pump=0.004, n_init=0.0, bath_k=0.0,
                           gamma_decay=1 / (4.0 * US))
        cfg = ProtocolConfig(device_a=dev, device_b=dev,
                             interferometer=InterferometerConfig(),
                             detectors=DetectorModel())
        reg = fock.ModeRegister(2, 3)
        st = fock.basis_state(reg, [1, 1])
        out = protocol.evolve_delay(st, 4.0 * US, cfg)
        assert fock.number_expectation(out, 0) == pytest.approx(
            math.exp(-1), abs=1e-6)

    def test_heating_tracks_rate_equation(self):
        dev = DeviceParams(p_pump=0.004, n_init=0.05, n_start=0.02,
                           bath_k=1.2e6, bath_gamma=1 / (0.5 * US),
                           gamma_decay=1 / (4.0 * US))
        cfg = ProtocolConfig(device_a=dev, device_b=dev,
                             interferometer=InterferometerConfig(),
                             detectors=DetectorModel(), mech_cutoff=9)
        reg = fock.ModeRegister(2, 9)
        st = fock.product_thermal_state(reg, [0.02, 0.02], tol=1e-4)
        heat = HeatingParams(decay=dev.gamma_decay, bath_gamma=dev.bath_gamma,
                             bath_k=dev.bath_k, n_init=dev.n_init)
        for tau in (123e-9, 1.0 * US, 2.5 * US):
            out = protocol.evolve_delay(st, tau, cfg)
            assert fock.number_expectation(out, 0) == pytest.approx(
                occupation(tau, heat, 0.02), rel=0.02)

    def test_slice_doubling_changes_little(self, monkeypatch):
        dev = DeviceParams(p_pump=0.004, n_init=0.05, n_start=0.02,
                           bath_k=1.2e6, bath_gamma=1 / (0.5 * US),
                           gamma_decay=1 / (4.0 * US))
        cfg = ProtocolConfig(device_a=dev, device_b=dev,
                             interferometer=InterferometerConfig(),
                             detectors=DetectorModel(), mech_cutoff=9)
        reg = fock.ModeRegister(2, 9)
        st = fock.product_thermal_state(reg, [0.02, 0.02], tol=1e-4)
        a = protocol.evolve_delay(st, 2.0 * US, cfg)
        monkeypatch.setattr(protocol, "HEATING_SLICES", 2 * protocol.HEATING_SLICES)
        b = protocol.evolve_delay(st, 2.0 * US, cfg)
        assert np.max(np.abs(a.mat - b.mat)) < 1e-4

    def test_full_cycle_restores_relative_phase(self):
        cfg = ideal_config(p_pump=0.004)
        pump = protocol.pump_stage(cfg)
        st, _ = protocol.herald(pump, 1)
        period = 2 * math.pi / cfg.interferometer.delta_omega_m
        coh0 = fock.mode_moment(st, [(0, True), (1, False)])
        evolved = protocol.evolve_delay(st, period, cfg)
        coh1 = fock.mode_moment(evolved, [(0, True), (1, False)])
        # one full cycle returns the phase; decay only shrinks the magnitude
        assert math.isclose(np.angle(coh1), np.angle(coh0), abs_tol=1e-6)


class TestReadoutFringe:
    def test_extremum_routes_to_one_detector(self):
        cfg = ideal_config(p_pump=0.004, phi0=0.3)
        pump = protocol.pump_stage(cfg)
        st, _ = protocol.herald(pump, 1)
        rd = protocol.readout_stage(st, cfg, delta_phi=-0.6)
        assert rd.detector_click_prob(1) > 100 * rd.detector_click_prob(2)

    def test_fringe_period_is_two_pi(self):
        cfg = ideal_config(p_pump=0.004, phi0=0.3)
        pump = protocol.pump_stage(cfg)
        st, _ = protocol.herald(pump, 1)
        base = protocol.readout_stage(st, cfg, delta_phi=0.4)
        wrapped = protocol.readout_stage(st, cfg, delta_phi=0.4 + 2 * math.pi)
        assert base.detector_click_prob(1) == pytest.approx(
            wrapped.detector_click_prob(1), rel=1e-9)

    def test_fringe_is_sinusoidal_with_high_visibility(self):
        cfg = ideal_config(p_pump=0.004)
        pump = protocol.pump_stage(cfg)
        st, _ = protocol.herald(pump, 1)
        phis = np.linspace(0, 2 * math.pi, 12, endpoint=False)
        rates = np.array([protocol.readout_stage(st, cfg, delta_phi=p)
                          .detector_click_prob(1) for p in phis])
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
        plus, _ = protocol.herald(pump, 1)
        minus, _ = protocol.herald(pump, 2)
        rd_plus = protocol.readout_stage(plus, cfg, delta_phi=-0.6)
        rd_minus = protocol.readout_stage(minus, cfg, delta_phi=-0.6)
        assert rd_plus.detector_click_prob(1) == pytest.approx(
            rd_minus.detector_click_prob(2), rel=1e-9)
        assert rd_plus.detector_click_prob(2) == pytest.approx(
            rd_minus.detector_click_prob(1), rel=1e-9)

    def test_delay_fringe_period_matches_frequency_difference(self):
        cfg = ideal_config(p_pump=0.004)
        pump = protocol.pump_stage(cfg)
        st, _ = protocol.herald(pump, 1)
        period = 2 * math.pi / cfg.interferometer.delta_omega_m
        r0 = protocol.readout_stage(
            protocol.evolve_delay(st, 123e-9, cfg), cfg, 0.0)
        r1 = protocol.readout_stage(
            protocol.evolve_delay(st, 123e-9 + period, cfg), cfg, 0.0)
        assert r0.detector_click_prob(1) == pytest.approx(
            r1.detector_click_prob(1), rel=2e-2)
        assert period == pytest.approx(22.22e-9, abs=0.01e-9)


class TestWitnessFromState:
    def test_ideal_shared_excitation_has_zero_witness(self):
        reg = fock.ModeRegister(2, 3)
        amp = shared_excitation_vector(reg, 0.2)
        st = fock.pure_state(reg, amp)
        assert protocol.witness_from_state(st) == pytest.approx(0.0, abs=1e-12)

    def test_dephased_mixture_has_no_coherence(self):
        reg = fock.ModeRegister(2, 3)
        mat = 0.5 * (fock.basis_state(reg, [1, 0]).mat
                     + fock.basis_state(reg, [0, 1]).mat)
        st = fock.DensityMatrix(reg, mat)
        with pytest.raises(protocol.ProtocolError, match="no coherence"):
            protocol.witness_from_state(st)

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
                tau=123e-9, mech_cutoff=5)
            model = protocol.build_trial_model(cfg, delta_phi=1.9375 * math.pi)
            for det in (1, 2):
                r_exact = model.exact_witness(det)
                bound = witness_from_g2(model.g2_exact(1, det),
                                        model.g2_exact(2, det))
                assert r_exact <= bound + 1e-9, (
                    f"witness inequality violated at {(n_init, p_pump, n_leak, p_dark)}")

    def test_closed_form_witness_matches_fock_delay(self):
        # oracle: the intensity-weighted herald taken through the Fock
        # delay, then the moment ratio of the evolved state
        import os
        from mechlink.config import parse_config
        base = parse_config(os.path.join(os.path.dirname(__file__), "..",
                                         "configs", "entangle_stats.cfg")).protocol
        assert base.interferometer.phase_jitter_sigma == 0.0   # one pump node
        closed = {1: [], 2: []}
        for mech_cutoff in (5, 7, 9):
            cfg = replace(base, mech_cutoff=mech_cutoff)
            model = protocol.build_trial_model(cfg)
            pump = protocol.pump_stage(cfg)
            for det in (1, 2):
                st, _ = protocol.number_weighted_herald(pump, det)
                oracle = protocol.witness_from_state(
                    protocol.evolve_delay(st, cfg.tau, cfg))
                assert model.exact_witness(det) == pytest.approx(oracle, rel=1e-4)
                closed[det].append(model.exact_witness(det))
        for values in closed.values():
            assert max(values) - min(values) < 1e-6


class TestCalibratedBudget:
    def test_aggregate_rates_with_full_detection_budget(self):
        import os
        from mechlink.config import parse_config
        cfg = parse_config(os.path.join(os.path.dirname(__file__), "..",
                                        "configs", "entangle_realistic.cfg"))
        model = protocol.build_trial_model(cfg.protocol)
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
    def test_detector_symmetry_of_noiseless_fringe(self):
        # heralds on 1 vs 2 give fringes exactly pi out of phase: at a fringe
        # extremum the conditional read rates swap detectors
        cfg = ideal_config(p_pump=0.004)
        m = protocol.build_trial_model(cfg, delta_phi=1.9375 * math.pi)
        assert m.g2_exact(1, 1) == pytest.approx(m.g2_exact(2, 2), rel=1e-6)
        assert m.g2_exact(2, 1) == pytest.approx(m.g2_exact(1, 2), rel=1e-6)

    def test_cutoff_convergence_at_pump_scale(self):
        # with excitation only from the drives, observables converge fast
        cfg3 = ideal_config(p_pump=0.007)
        cfg4 = replace(cfg3, cutoff=4, mech_cutoff=4)
        m3 = protocol.build_trial_model(cfg3, delta_phi=0.4)
        m4 = protocol.build_trial_model(cfg4, delta_phi=0.4)
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
        m0 = protocol.build_trial_model(cfg, delta_phi=1.9375 * math.pi)
        m1 = protocol.build_trial_model(jit, delta_phi=1.9375 * math.pi)

        def contrast(m):
            gs = [m.g2_exact(i, j) for i in (1, 2) for j in (1, 2)]
            return (max(gs) - min(gs)) / (max(gs) + min(gs))

        assert contrast(m1) < 0.8 * contrast(m0)

    def test_joint_table_is_a_distribution(self):
        cfg = ideal_config()
        m = protocol.build_trial_model(cfg)
        assert m.joint.min() >= 0
        assert m.joint.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(m.read_given_pump.sum(axis=1), 1.0, atol=1e-12)
