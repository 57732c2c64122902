"""Sampling determinism, click-log integrity and serialization."""

import numpy as np
import pytest

from mechlink import campaign, protocol, stats
from mechlink.campaign import WINDOW_PUMP, ClickLog, run_campaign
from mechlink.devices import (DetectorModel, DeviceParams, InterferometerConfig,
                              ProtocolConfig)


@pytest.fixture(scope="module")
def small_config():
    dev = DeviceParams(p_pump=0.007, p_read=0.034, n_init=0.0, bath_k=0.0)
    return ProtocolConfig(
        device_a=dev, device_b=dev,
        interferometer=InterferometerConfig(),
        detectors=DetectorModel(eta=(0.02, 0.02),
                                p_dark_pump=(1e-6, 1e-6),
                                p_dark_read=(1e-6, 1e-6)),
        tau=123e-9)


@pytest.fixture(scope="module")
def small_model(small_config):
    return protocol.build_trial_model(small_config)


class TestDeterminism:
    def test_same_seed_same_log(self, small_config, small_model):
        a = run_campaign(small_config, 500_000, seed=9, model=small_model)
        b = run_campaign(small_config, 500_000, seed=9, model=small_model)
        assert np.array_equal(a.trial, b.trial)
        assert np.array_equal(a.detector, b.detector)
        assert np.array_equal(a.window, b.window)

    def test_worker_count_does_not_change_log(self, small_config, small_model):
        n = 3 * campaign.CHUNK_TRIALS + 1234
        one = run_campaign(small_config, n, seed=5, model=small_model, workers=1)
        four = run_campaign(small_config, n, seed=5, model=small_model, workers=4)
        assert one.to_csv() == four.to_csv()

    def test_different_seed_differs(self, small_config, small_model):
        a = run_campaign(small_config, 500_000, seed=1, model=small_model)
        b = run_campaign(small_config, 500_000, seed=2, model=small_model)
        assert a.to_csv() != b.to_csv()

    def test_stream_separates_sweep_points(self, small_config, small_model):
        a = run_campaign(small_config, 200_000, seed=1, stream=0, model=small_model)
        b = run_campaign(small_config, 200_000, seed=1, stream=1, model=small_model)
        assert a.to_csv() != b.to_csv()


class TestAgreementWithExactModel:
    def test_frequencies_within_binomial_bounds(self, small_config, small_model):
        n = 1_000_000
        log = run_campaign(small_config, n, seed=77, model=small_model)
        t = stats.tally(log)
        checks = [
            (t.pump_singles[0], small_model.pump_click_prob(1)),
            (t.pump_singles[1], small_model.pump_click_prob(2)),
            (t.read_singles[0], small_model.read_click_prob(1)),
            (t.read_singles[1], small_model.read_click_prob(2)),
        ]
        for count, p in checks:
            sigma = max(np.sqrt(n * p * (1 - p)), 1.0)
            assert abs(count - n * p) < 4 * sigma

    def test_zero_probability_config_gives_empty_log(self):
        dev = DeviceParams(p_pump=0.0, p_read=0.034, n_init=0.0, bath_k=0.0)
        cfg = ProtocolConfig(device_a=dev, device_b=dev,
                             interferometer=InterferometerConfig(),
                             detectors=DetectorModel(), tau=0.0)
        log = run_campaign(cfg, 100_000, seed=3)
        assert len(log) == 0

    def test_herald_count_matches_binomial_oracle(self, small_config, small_model):
        n = 10_000_000
        log = run_campaign(small_config, n, seed=11, model=small_model)
        p = small_model.herald_prob()
        pump_rows = log.window == WINDOW_PUMP
        heralds = len(np.unique(log.trial[pump_rows]))
        assert abs(heralds - n * p) < 3 * np.sqrt(n * p)


class TestClickLog:
    def test_row_ordering_enforced(self):
        with pytest.raises(campaign.CampaignError, match="ordered"):
            ClickLog(n_trials=10, seed=0, stream=0,
                     trial=np.array([5, 3]), detector=np.array([1, 1]),
                     window=np.array([0, 0]))

    def test_detector_validation(self):
        with pytest.raises(campaign.CampaignError, match="detector"):
            ClickLog(n_trials=10, seed=0, stream=0,
                     trial=np.array([1]), detector=np.array([3]),
                     window=np.array([0]))

    def test_csv_round_trip(self, small_config, small_model, tmp_path):
        log = run_campaign(small_config, 300_000, seed=21, model=small_model,
                           config_snapshot={"campaign": {"seed": "21"}})
        csv_path = tmp_path / "log.csv"
        meta_path = tmp_path / "log.json"
        log.save(csv_path, meta_path)
        back = ClickLog.from_csv(csv_path, meta_path)
        assert back.n_trials == log.n_trials
        assert back.seed == log.seed
        assert np.array_equal(back.trial, log.trial)
        assert np.array_equal(back.detector, log.detector)
        assert np.array_equal(back.window, log.window)
        assert stats.tally(back).to_json_dict() == stats.tally(log).to_json_dict()

    def test_csv_header(self, small_config, small_model):
        log = run_campaign(small_config, 1000, seed=1, model=small_model)
        assert log.to_csv().splitlines()[0] == "trial,detector,window"
