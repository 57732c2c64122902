"""Channel-level checks for the truncated Fock engine."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mechlink import fock
from mechlink.fock import (
    ModeRegister,
    basis_state,
    beamsplitter,
    click_measurement,
    fidelity_pure,
    loss_channel,
    mode_moment,
    number_expectation,
    phase_rotation,
    product_thermal_state,
    pure_state,
    thermal_noise_channel,
    two_mode_squeeze,
)


def bell_like(register, phase=0.0):
    amp = np.zeros(register.dim, dtype=complex)
    amp[register.basis_index([1, 0])] = 1 / math.sqrt(2)
    amp[register.basis_index([0, 1])] = np.exp(1j * phase) / math.sqrt(2)
    return pure_state(register, amp)


class TestRegisterAndState:
    def test_register_rejects_bad_sizes(self):
        with pytest.raises(fock.FockError):
            ModeRegister(0, 3)
        with pytest.raises(fock.FockError):
            ModeRegister(2, 0)

    def test_register_memory_bound(self):
        with pytest.raises(fock.FockError):
            ModeRegister(8, 5, memory_bound=10_000_000)

    def test_state_validation_rejects_unnormalized(self):
        reg = ModeRegister(1, 3)
        with pytest.raises(fock.FockError):
            fock.DensityMatrix(reg, np.eye(4, dtype=complex))

    def test_state_is_immutable(self):
        st_ = basis_state(ModeRegister(1, 2), [0])
        with pytest.raises(AttributeError):
            st_.mat = None
        assert not st_.mat.flags.writeable


class TestThermalState:
    def test_vacuum_limit(self):
        st_ = product_thermal_state(ModeRegister(1, 3), [0.0])
        assert st_.probabilities()[0] == 1.0

    def test_geometric_law_at_calibrated_occupation(self):
        st_ = product_thermal_state(ModeRegister(1, 9), [0.119])
        assert st_.probabilities()[0] == pytest.approx(1 / 1.119, abs=1e-7)

    @given(st.floats(min_value=0.0, max_value=0.08))
    @settings(max_examples=30, deadline=None)
    def test_trace_one(self, n_mean):
        st_ = product_thermal_state(ModeRegister(1, 6), [n_mean])
        assert np.trace(st_.mat).real == pytest.approx(1.0, abs=1e-12)

    def test_rejects_cutoff_too_small(self):
        with pytest.raises(fock.TruncationError, match="cutoff too small"):
            product_thermal_state(ModeRegister(1, 2), [0.5])


class TestTwoModeSqueeze:
    def test_zero_excitation_is_identity(self):
        reg = ModeRegister(2, 3)
        v = basis_state(reg, [0, 0])
        out = two_mode_squeeze(v, 0, 1, 0.0)
        assert np.array_equal(out.mat, v.mat)

    def test_pair_law_on_vacuum(self):
        reg = ModeRegister(2, 3)
        out = two_mode_squeeze(basis_state(reg, [0, 0]), 0, 1, 0.007)
        p = out.probabilities()
        assert p[1, 1] == pytest.approx(0.007 * 0.993, abs=1e-9)

    @pytest.mark.parametrize("p_excite", [0.005, 0.01, 0.02])
    def test_matches_analytic_distribution(self, p_excite):
        # comparison against the cutoff-renormalized pair law; the raw
        # untruncated law differs by the (tracked) tail mass p**(c+1)
        reg = ModeRegister(2, 3)
        out = two_mode_squeeze(basis_state(reg, [0, 0]), 0, 1, p_excite)
        probs = out.probabilities()
        law = p_excite ** np.arange(4) * (1 - p_excite)
        law /= law.sum()
        for n in range(4):
            assert probs[n, n] == pytest.approx(law[n], abs=1e-8)
        assert out.truncation_budget < 2 * p_excite**4

    def test_mode_symmetry_on_vacuum(self):
        reg = ModeRegister(2, 3)
        out = two_mode_squeeze(basis_state(reg, [0, 0]), 0, 1, 0.01)
        assert number_expectation(out, 0) == pytest.approx(
            number_expectation(out, 1), abs=1e-12)

    def test_rejects_large_excitation(self):
        reg = ModeRegister(2, 3)
        with pytest.raises(fock.FockError):
            two_mode_squeeze(basis_state(reg, [0, 0]), 0, 1, 0.6)
        with pytest.raises(fock.TruncationError, match="cutoff too small"):
            two_mode_squeeze(basis_state(reg, [0, 0]), 0, 1, 0.3)


class TestBeamsplitter:
    def test_full_transmission_is_identity(self):
        reg = ModeRegister(2, 2)
        st_ = basis_state(reg, [1, 1])
        out = beamsplitter(st_, 0, 1, 1.0)
        assert np.allclose(out.mat, st_.mat)

    def test_balanced_single_photon_split(self):
        reg = ModeRegister(2, 2)
        out = beamsplitter(basis_state(reg, [1, 0]), 0, 1, 0.5)
        p = out.probabilities()
        assert p[1, 0] == pytest.approx(0.5, abs=1e-12)
        assert p[0, 1] == pytest.approx(0.5, abs=1e-12)

    def test_two_photon_interference_cancels_coincidence(self):
        reg = ModeRegister(2, 2)
        out = beamsplitter(basis_state(reg, [1, 1]), 0, 1, 0.5)
        assert out.probabilities()[1, 1] == pytest.approx(0.0, abs=1e-12)

    def test_photon_number_conserved(self):
        reg = ModeRegister(2, 3)
        st_ = two_mode_squeeze(basis_state(reg, [0, 0]), 0, 1, 0.01)
        before = number_expectation(st_, 0) + number_expectation(st_, 1)
        out = beamsplitter(st_, 0, 1, 0.37, phase=0.4)
        after = number_expectation(out, 0) + number_expectation(out, 1)
        assert after == pytest.approx(before, abs=1e-10)


class TestPhaseRotation:
    def test_zero_is_identity(self):
        reg = ModeRegister(1, 5)
        st_ = product_thermal_state(reg, [0.05])
        assert np.allclose(phase_rotation(st_, 0, 0.0).mat, st_.mat)

    @given(st.integers(min_value=-3, max_value=3))
    @settings(max_examples=10, deadline=None)
    def test_two_pi_periodicity(self, k):
        reg = ModeRegister(1, 3)
        st_ = pure_state(reg, np.array([1, 1, 1, 1]) / 2.0)
        out = phase_rotation(st_, 0, 2 * np.pi * k)
        assert np.allclose(out.mat, st_.mat, atol=1e-12)

    def test_pi_flips_superposition(self):
        reg = ModeRegister(1, 3)
        plus = pure_state(reg, np.array([1, 1, 0, 0]) / math.sqrt(2))
        out = phase_rotation(plus, 0, np.pi)
        minus = np.array([1, -1, 0, 0]) / math.sqrt(2)
        assert fidelity_pure(out, minus) == pytest.approx(1.0, abs=1e-12)


class TestLossChannel:
    def test_unit_efficiency_is_identity(self):
        reg = ModeRegister(1, 4)
        st_ = product_thermal_state(reg, [0.2], tol=1e-3)
        assert np.allclose(loss_channel(st_, 0, 1.0).mat, st_.mat)

    def test_zero_efficiency_gives_vacuum(self):
        reg = ModeRegister(1, 4)
        st_ = product_thermal_state(reg, [0.2], tol=1e-3)
        out = loss_channel(st_, 0, 0.0)
        assert out.probabilities()[0] == pytest.approx(1.0, abs=1e-12)

    def test_thermal_maps_to_thermal(self):
        reg = ModeRegister(1, 12)
        st_ = product_thermal_state(reg, [0.3])
        out = loss_channel(st_, 0, 0.5)
        target = product_thermal_state(reg, [0.15])
        assert np.max(np.abs(out.mat - target.mat)) < 1e-8

    @given(st.floats(min_value=0.1, max_value=1.0),
           st.floats(min_value=0.1, max_value=1.0))
    @settings(max_examples=25, deadline=None)
    def test_composition_law(self, eta1, eta2):
        reg = ModeRegister(1, 5)
        st_ = product_thermal_state(reg, [0.1], tol=1e-4)
        seq = loss_channel(loss_channel(st_, 0, eta1), 0, eta2)
        direct = loss_channel(st_, 0, eta1 * eta2)
        assert number_expectation(seq, 0) == pytest.approx(
            number_expectation(direct, 0), abs=1e-10)


class TestThermalNoiseChannel:
    def test_zero_injection_is_identity(self):
        reg = ModeRegister(1, 4)
        st_ = product_thermal_state(reg, [0.05])
        assert np.allclose(thermal_noise_channel(st_, 0, 0.0).mat, st_.mat)

    def test_vacuum_gains_calibrated_occupation(self):
        st_ = basis_state(ModeRegister(1, 6), [0])
        out = thermal_noise_channel(st_, 0, 0.07)
        assert number_expectation(out, 0) == pytest.approx(0.07, abs=1e-6)

    def test_vacuum_input_produces_thermal_state(self):
        st_ = basis_state(ModeRegister(1, 9), [0])
        out = thermal_noise_channel(st_, 0, 0.07)
        target = product_thermal_state(ModeRegister(1, 9), [0.07])
        assert np.max(np.abs(out.mat - target.mat)) < 1e-7

    def test_injection_additivity_on_mean(self):
        st_ = basis_state(ModeRegister(1, 9), [0])
        out = thermal_noise_channel(thermal_noise_channel(st_, 0, 0.03), 0, 0.04)
        assert number_expectation(out, 0) == pytest.approx(0.07, abs=1e-6)


class TestClickMeasurement:
    def test_vacuum_never_clicks_without_darks(self):
        reg = ModeRegister(2, 2)
        out = click_measurement(basis_state(reg, [0, 0]), 0, 0.0)
        assert out.p_click == 0.0
        with pytest.raises(fock.FockError, match="impossible condition"):
            out.state_given_click()

    def test_single_photon_always_clicks(self):
        reg = ModeRegister(2, 2)
        out = click_measurement(basis_state(reg, [1, 0]), 0, 0.0)
        assert out.p_click == pytest.approx(1.0, abs=1e-12)

    def test_thermal_click_probability(self):
        st_ = product_thermal_state(ModeRegister(1, 9), [0.1])
        out = click_measurement(st_, 0, 0.001)
        assert out.p_click == pytest.approx(1 - 0.999 / 1.1, abs=1e-8)

    def test_heralding_projects_partner_mode(self):
        reg = ModeRegister(2, 3)
        pair = two_mode_squeeze(basis_state(reg, [0, 0]), 0, 1, 0.01)
        out = click_measurement(pair, 1, 0.0)
        assert number_expectation(out.state_given_click(), 0) > 1.0
        assert number_expectation(out.state_given_noclick(), 0) < 1e-3


class TestQueries:
    def test_fidelity_of_vacuum_with_itself(self):
        reg = ModeRegister(1, 3)
        v = np.zeros(4)
        v[0] = 1.0
        assert fidelity_pure(basis_state(reg, [0]), v) == pytest.approx(1.0)

    def test_exchange_moment_on_shared_excitation(self):
        reg = ModeRegister(2, 3)
        st_ = bell_like(reg)
        assert mode_moment(st_, [(0, True), (1, False)]) == pytest.approx(0.5)

    def test_partial_trace_of_product_state(self):
        reg = ModeRegister(2, 4)
        st_ = product_thermal_state(reg, [0.1, 0.2], tol=1e-3)
        reduced = fock._partial_trace_mat(st_.mat, reg.mode_dims, (0,))
        target = product_thermal_state(ModeRegister(1, 4), [0.1], tol=1e-3)
        assert np.max(np.abs(reduced - target.mat)) < 1e-12


class TestChannelInvariants:
    """Trace, Hermiticity and positivity across random channel pipelines."""

    def _random_channel(self, rng, st_):
        reg = st_.register
        kind = rng.integers(0, 5)
        modes = rng.permutation(reg.n_modes)[:2]
        if kind == 0:
            return two_mode_squeeze(st_, modes[0], modes[1],
                                    float(rng.uniform(0, 0.02)),
                                    float(rng.uniform(0, 2 * np.pi)), tol=1e-3)
        if kind == 1:
            return beamsplitter(st_, modes[0], modes[1],
                                float(rng.uniform(0, 1)),
                                float(rng.uniform(0, 2 * np.pi)))
        if kind == 2:
            return phase_rotation(st_, int(modes[0]), float(rng.uniform(0, 2 * np.pi)))
        if kind == 3:
            return loss_channel(st_, int(modes[0]), float(rng.uniform(0.3, 1.0)))
        return thermal_noise_channel(st_, int(modes[0]), float(rng.uniform(0, 0.01)),
                                     tol=1e-3)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_sequences_preserve_state_axioms(self, seed):
        rng = np.random.default_rng(seed)
        reg = ModeRegister(3, 3)
        st_ = product_thermal_state(reg, [0.05, 0.02, 0.0], tol=1e-4)
        for _ in range(50):
            st_ = self._random_channel(rng, st_)
        assert abs(np.trace(st_.mat).real - 1.0) < 1e-10
        assert np.max(np.abs(st_.mat - st_.mat.conj().T)) < 1e-12
        assert st_.min_eigenvalue() > -1e-9
