"""Sampling determinism, click-log integrity and serialization."""

import collections
import csv
import hashlib
import io
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mechlink import campaign, protocol, stats
from mechlink.campaign import CHUNK_TRIALS, ClickLog, run_campaign
from mechlink.config import parse_config
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


@pytest.fixture(scope="module")
def high_yield_model():
    """Every one of the 16 (pump, read) outcomes has probability >= 9e-4."""
    dev = DeviceParams(p_pump=0.05, p_read=0.5, n_init=0.5, bath_k=0.0)
    cfg = ProtocolConfig(
        device_a=dev, device_b=dev,
        interferometer=InterferometerConfig(),
        detectors=DetectorModel(eta=(1.0, 1.0),
                                p_dark_pump=(0.01, 0.01),
                                p_dark_read=(0.01, 0.01)),
        tau=123e-9)
    return protocol.build_trial_model(cfg)


def outcome_counts(log):
    """Trials per (pump, read) outcome, the trials without a click at code 0."""
    counts = np.bincount(log.code, minlength=16)
    counts[0] = log.n_trials - len(log.trial)
    return counts.reshape(4, 4).T        # [pump outcome, read outcome]


def csv_writer_reference(log):
    """The click-log text as csv.writer writes it, one row at a time: a
    trial's rows are the set bits of its code, bit 2 * window + detector - 1."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["trial", "detector", "window"])
    for t, code in zip(log.trial.tolist(), log.code.tolist()):
        for bit in range(4):
            if code >> bit & 1:
                writer.writerow([t, bit % 2 + 1, ("pump", "read")[bit // 2]])
    return buf.getvalue()


class TestDeterminism:
    def test_same_seed_same_log(self, small_config, small_model):
        a = run_campaign(small_config, 500_000, seed=9, model=small_model)
        b = run_campaign(small_config, 500_000, seed=9, model=small_model)
        assert np.array_equal(a.trial, b.trial)
        assert np.array_equal(a.code, b.code)

    def test_seed_to_log_mapping_is_pinned(self):
        cfg = parse_config(os.path.join(os.path.dirname(__file__), "..", "configs",
                                        "entangle_stats.cfg")).protocol
        log = run_campaign(cfg, 3 * CHUNK_TRIALS + 1234, seed=5, stream=0)
        text = log.to_csv()
        assert len(log) == text.count("\n") - 1 == 74_640
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "091fe996183380d35d86f35451142f69e392344fb4be21e2a35df31a59149f19")
        assert stats.tally(log).to_json_dict() == {
            "N": 3_146_962, "Cp1": 23_017, "Cp2": 22_867, "Cr1": 14_370,
            "Cr2": 14_386, "Cr1p1": 98, "Cr2p1": 859, "Cr1p2": 851, "Cr2p2": 110}

    @pytest.mark.parametrize("fixture", ["small_model", "high_yield_model"])
    def test_log_tally_equals_the_counts_draw(self, fixture, request):
        m = request.getfixturevalue(fixture)
        n = 3 * CHUNK_TRIALS + 1234
        counts = campaign.code_counts(m, n, seed=5, stream=3)
        log = run_campaign(m.config, n, seed=5, stream=3, model=m)
        assert counts.sum() == n
        assert np.array_equal(log.code_counts()[1:], counts[1:])
        assert stats.tally(log) == stats.tally_from_counts(counts, n)

    def test_a_chunk_does_not_depend_on_the_campaign_length(self, small_config,
                                                            small_model):
        # the chunk index keys each generator, so a longer campaign of the
        # same seed begins with the shorter one's chunks
        short = run_campaign(small_config, CHUNK_TRIALS, seed=5, model=small_model)
        long = run_campaign(small_config, 2 * CHUNK_TRIALS + 1234, seed=5,
                            model=small_model)
        first = long.trial < CHUNK_TRIALS
        assert len(short) > 0
        assert np.array_equal(short.trial, long.trial[first])
        assert np.array_equal(short.code, long.code[first])

    def test_given_chunk_draws_give_the_same_log(self, small_config, small_model):
        n = 2 * CHUNK_TRIALS + 1234
        chunks = list(campaign.chunk_draws(small_model, n, seed=5, stream=2))
        given = run_campaign(small_config, n, seed=5, stream=2, model=small_model,
                             chunks=chunks)
        drawn = run_campaign(small_config, n, seed=5, stream=2, model=small_model)
        assert given.to_csv() == drawn.to_csv()

    def test_each_chunk_places_its_own_draw(self, high_yield_model):
        m = high_yield_model
        n = 3 * CHUNK_TRIALS + 1234
        log = run_campaign(m.config, n, seed=5, stream=3, model=m)
        assert np.all(np.diff(log.trial.astype(np.int64)) > 0)
        chunk_of = log.trial // CHUNK_TRIALS
        for c, (_, counts) in enumerate(campaign.chunk_draws(m, n, 5, 3)):
            mine = chunk_of == c
            assert np.array_equal(np.bincount(log.code[mine], minlength=16)[1:],
                                  counts[1:])
            assert log.trial[mine].max() < min((c + 1) * CHUNK_TRIALS, n)
        assert chunk_of.max() == 3

    def test_different_seed_differs(self, small_config, small_model):
        a = run_campaign(small_config, 500_000, seed=1, model=small_model)
        b = run_campaign(small_config, 500_000, seed=2, model=small_model)
        assert a.to_csv() != b.to_csv()

    def test_stream_separates_sweep_points(self, small_config, small_model):
        a = run_campaign(small_config, 200_000, seed=1, stream=0, model=small_model)
        b = run_campaign(small_config, 200_000, seed=1, stream=1, model=small_model)
        assert a.to_csv() != b.to_csv()


def traced_peak(run):
    """run() and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_campaign_holds_its_log_once(self, high_yield_model):
        m = high_yield_model
        log, peak = traced_peak(lambda: run_campaign(
            m.config, 3 * CHUNK_TRIALS + 1234, seed=5, model=m))
        held = log.trial.nbytes + log.code.nbytes
        # one chunk's clicks are placed at a time, with numpy's ordered
        # sample, which at a click yield as high as this one holds an
        # 8-byte tail-shuffle index over the chunk and the chunk's
        # positions; only a sampled log pays it, never a counts draw
        most = np.bincount(log.trial // CHUNK_TRIALS).max()
        assert peak < held + 8 * (CHUNK_TRIALS + most) + 250_000

    def test_csv_is_written_one_block_at_a_time(self, high_yield_model):
        m = high_yield_model
        log = run_campaign(m.config, 400_000, seed=8, model=m)
        assert len(log.trial) > 10 * campaign.CSV_BLOCK_TRIALS
        campaign._digit_groups()
        _, peak = traced_peak(lambda: list(map(len, log._csv_blocks())))
        # one block's rows (1.4 a trial here) and their temporaries take
        # about 97 bytes a trial of the block; a copy of the block's text
        # adds about 20, a second block about 97
        assert peak < 112 * campaign.CSV_BLOCK_TRIALS


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
        heralds = np.count_nonzero(log.code & 0b11)     # a pump-window click
        assert abs(heralds - n * p) < 3 * np.sqrt(n * p)

    def test_every_outcome_cell_within_binomial_bounds(self, high_yield_model):
        n = 2 * CHUNK_TRIALS + 5
        m = high_yield_model
        log = run_campaign(m.config, n, seed=13, model=m)
        expected = n * m.joint
        assert expected.min() >= 100
        sigma = np.sqrt(expected * (1 - expected / n))
        assert np.all(np.abs(outcome_counts(log) - expected) < 4 * sigma)

    @pytest.mark.parametrize("n", [0, 1, CHUNK_TRIALS - 1, CHUNK_TRIALS + 1])
    def test_rows_are_the_popcounts_of_the_sampled_codes(self, high_yield_model, n):
        m = high_yield_model
        log = run_campaign(m.config, n, seed=4, model=m)
        codes = [campaign._place_clicks(*chunk) & 15
                 for chunk in campaign.chunk_draws(m, n, 4, 0)]
        popcounts = [np.unpackbits(c.astype(np.uint8)).sum() for c in codes]
        assert log.n_trials == n
        assert np.array_equal(log.code, np.concatenate([np.zeros(0, int), *codes]))
        assert len(log) == sum(popcounts) == log.to_csv().count("\n") - 1


def read_csv_body(path, body, n_trials=10):
    """`ClickLog.from_csv` of a log with `body` under the CSV header and
    metadata of `n_trials` trials."""
    path.write_text("trial,detector,window\n" + body)
    meta = path.with_suffix(".json")
    meta.write_text(json.dumps({"n_trials": n_trials}))
    return ClickLog.from_csv(path, meta)


class TestClickLog:
    def test_row_ordering_enforced(self, tmp_path):
        for trial in ([5, 3], [3, 3]):
            with pytest.raises(campaign.CampaignError, match="strictly increasing"):
                ClickLog(n_trials=10, seed=0, stream=0, trial=trial, code=[1, 1])
        path = tmp_path / "log.csv"
        for body in ("5,1,read\n5,1,pump\n", "5,2,pump\n5,1,pump\n",
                     "6,1,pump\n5,1,pump\n", "5,1,pump\n5,1,pump\n"):
            with pytest.raises(campaign.CampaignError, match="strictly ordered"):
                read_csv_body(path, body)

    def test_detector_validation(self, tmp_path):
        path = tmp_path / "log.csv"
        for detector in (0, 3):
            with pytest.raises(campaign.CampaignError, match="detector must be 1 or 2"):
                read_csv_body(path, f"5,{detector},pump\n")

    @pytest.mark.parametrize("code", [0, 16, -1])
    def test_code_validation(self, code):
        with pytest.raises(campaign.CampaignError, match="code must be in 1..15"):
            ClickLog(n_trials=10, seed=0, stream=0, trial=[1, 2], code=[3, code])

    @pytest.mark.parametrize("trial", [-1, 10])
    def test_trial_range_validation(self, trial):
        with pytest.raises(campaign.CampaignError, match="outside campaign range"):
            ClickLog(n_trials=10, seed=0, stream=0, trial=[trial], code=[1])

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
        assert np.array_equal(back.code, log.code)
        assert stats.tally(back).to_json_dict() == stats.tally(log).to_json_dict()

    def test_csv_header(self, small_config, small_model):
        log = run_campaign(small_config, 1000, seed=1, model=small_model)
        assert log.to_csv().splitlines()[0] == "trial,detector,window"

    def test_csv_format_is_pinned(self, tmp_path):
        n = 12_345_678_901
        log = ClickLog(n_trials=n, seed=3, stream=2,
                       trial=[0, 9, 10, 99, 100, n - 1],
                       code=[0b0001, 0b0010, 0b0100, 0b1000, 0b1111, 0b1000])
        text = log.to_csv()
        assert text == ("trial,detector,window\n"
                        "0,1,pump\n9,2,pump\n10,1,read\n99,2,read\n"
                        "100,1,pump\n100,2,pump\n100,1,read\n100,2,read\n"
                        "12345678900,2,read\n")
        assert text == csv_writer_reference(log)
        log.save(tmp_path / "log.csv", tmp_path / "log.json")
        assert (tmp_path / "log.csv").read_bytes() == text.encode()
        back = ClickLog.from_csv(tmp_path / "log.csv", tmp_path / "log.json")
        assert (back.n_trials, back.seed, back.stream) == (n, 3, 2)
        assert back.to_csv() == text

    def test_csv_matches_row_writer_across_blocks(self, high_yield_model):
        m = high_yield_model
        log = run_campaign(m.config, 400_000, seed=8, model=m)
        assert len(log.trial) > 2 * campaign.CSV_BLOCK_TRIALS
        assert log.to_csv() == csv_writer_reference(log)

    def test_code_counts_equal_the_plain_bincount(self, high_yield_model):
        empty = ClickLog(n_trials=7, seed=0, stream=0, trial=[], code=[])
        log = run_campaign(high_yield_model.config, 400_000, seed=8, model=high_yield_model)
        assert len(log.trial) > 2 * campaign.CSV_BLOCK_TRIALS
        for each in (empty, log):
            assert np.array_equal(each.code_counts(), np.bincount(each.code, minlength=16))

    def test_empty_log_round_trip(self, tmp_path):
        log = ClickLog(n_trials=7, seed=0, stream=0, trial=[], code=[])
        assert log.to_csv() == "trial,detector,window\n"
        log.save(tmp_path / "log.csv", tmp_path / "log.json")
        back = ClickLog.from_csv(tmp_path / "log.csv", tmp_path / "log.json")
        assert back.n_trials == 7 and len(back) == 0

    def test_csv_crosses_every_digit_width(self, tmp_path):
        trial = sorted({*range(10), *(10**k + d for k in range(1, 13) for d in (-1, 0)),
                        2**32 - 1, 2**32, 2**62})
        log = ClickLog(n_trials=2**62 + 1, seed=0, stream=0, trial=trial,
                       code=1 + np.arange(len(trial)) % 15)
        assert set(log.code) == set(range(1, 16))
        text = log.to_csv()
        assert text == csv_writer_reference(log)
        log.save(tmp_path / "log.csv", tmp_path / "log.json")
        assert (tmp_path / "log.csv").read_bytes() == text.encode()

    @given(trial=st.lists(st.integers(0, 2**63 - 2), unique=True, max_size=50),
           codes=st.lists(st.integers(1, 15), min_size=50, max_size=50))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_csv_matches_row_writer_and_round_trips(self, trial, codes,
                                                    tmp_path_factory):
        log = ClickLog(n_trials=2**63 - 1, seed=0, stream=0, trial=sorted(trial),
                       code=codes[:len(trial)])
        assert log.to_csv() == csv_writer_reference(log)
        directory = tmp_path_factory.mktemp("log")
        log.save(directory / "log.csv", directory / "log.json")
        back = ClickLog.from_csv(directory / "log.csv", directory / "log.json")
        assert np.array_equal(back.trial, log.trial)
        assert np.array_equal(back.code, log.code)

    @pytest.mark.parametrize("body, match", [
        ("5,1,pump\n6,1\n", "malformed click-log row"),
        ("5,1,pump\nx,1,read\n", "malformed click-log row"),
        ("5.5,1,read\n", "malformed click-log row"),
        ("5,1,pump,7\n", "malformed click-log row"),
        ("5,1,pump\n6,2,probe\n", "unknown window label 'probe'"),
        ("5,3,read\n", "detector must be 1 or 2"),
    ])
    def test_malformed_rows_raise_campaign_error(self, tmp_path, body, match):
        with pytest.raises(campaign.CampaignError, match=match):
            read_csv_body(tmp_path / "bad.csv", body)

    def test_trial_count_is_never_guessed(self, tmp_path):
        # the last row is trial 5, yet the campaign may have run any N > 5
        path = tmp_path / "log.csv"
        path.write_text("trial,detector,window\n5,1,pump\n")
        (tmp_path / "log.json").write_text(json.dumps({"seed": 3}))
        with pytest.raises(campaign.CampaignError, match="trial count is unknown"):
            ClickLog.from_csv(path, tmp_path / "log.json")
        # the metadata is checked before the log is opened
        with pytest.raises(campaign.CampaignError, match="trial count is unknown"):
            ClickLog.from_csv(tmp_path / "absent.csv", tmp_path / "log.json")

    def test_unexpected_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("trial,window,detector\n5,pump,1\n")
        (tmp_path / "bad.json").write_text(json.dumps({"n_trials": 10}))
        with pytest.raises(campaign.CampaignError, match="header"):
            ClickLog.from_csv(path, tmp_path / "bad.json")


class TestTrialColumn:
    @pytest.mark.parametrize("n, dtype", [(2**32, np.uint32), (2**32 + 1, np.int64)])
    def test_dtype_boundary(self, n, dtype):
        log = ClickLog(n_trials=n, seed=0, stream=0, trial=[0, n - 1], code=[1, 8])
        assert log.trial.dtype == dtype
        assert log.trial.tolist() == [0, n - 1]

    @pytest.mark.parametrize("n, trial", [
        (2**32, [0, 999_999_999, 1_000_000_000, 2**32 - 1]),
        (2**32 + 1, [2**32 - 1, 2**32]),
    ])
    def test_ten_digit_rows_round_trip(self, tmp_path, n, trial):
        log = ClickLog(n_trials=n, seed=1, stream=0, trial=trial,
                       code=[0b1111, 0b0110, 0b1001, 0b0001][:len(trial)])
        text = log.to_csv()
        assert text == csv_writer_reference(log)
        log.save(tmp_path / "log.csv", tmp_path / "log.json")
        assert (tmp_path / "log.csv").read_bytes() == text.encode()
        back = ClickLog.from_csv(tmp_path / "log.csv", tmp_path / "log.json")
        assert back.trial.dtype == log.trial.dtype
        assert back.trial.tolist() == trial
        assert back.to_csv() == text

    @pytest.mark.parametrize("n, row", [
        (10, "-1"), (10, "10"), (2**32, "-1"), (2**32, "4294967296"),
        (2**32, "4294967297"),
    ])
    def test_csv_trial_outside_range_rejected(self, tmp_path, n, row):
        (tmp_path / "log.csv").write_text(f"trial,detector,window\n{row},1,pump\n")
        (tmp_path / "log.json").write_text(json.dumps({"n_trials": n}))
        with pytest.raises(campaign.CampaignError, match="outside campaign range"):
            ClickLog.from_csv(tmp_path / "log.csv", tmp_path / "log.json")

    def test_sampled_log_holds_five_bytes_per_clicked_trial(self, high_yield_model):
        m = high_yield_model
        log = run_campaign(m.config, 400_000, seed=8, model=m)
        assert len(log.trial) > 0
        assert log.trial.nbytes + log.code.nbytes == 5 * len(log.trial)


class TestPlacement:
    # trials per code 0..15 of a 5-trial chunk: one without a click, two of
    # code 1, one each of codes 2 and 3, so 5! / 2! = 60 arrangements
    COUNTS = np.array([1, 2, 1, 1] + [0] * 12)

    def test_every_arrangement_is_equally_likely(self):
        rng = np.random.Generator(np.random.Philox(11))
        draws = 12_000
        seen = collections.Counter()
        for _ in range(draws):
            placed = campaign._place_clicks(rng, self.COUNTS)
            assert np.all(np.diff((placed >> 4).astype(int)) > 0)
            assert np.array_equal(np.bincount(placed & 15, minlength=16)[1:],
                                  self.COUNTS[1:])
            row = np.zeros(5, int)
            row[placed >> 4] = placed & 15
            seen[tuple(row)] += 1
        assert len(seen) == 60
        observed = np.array(list(seen.values()))
        expected = draws / 60
        chi2 = ((observed - expected) ** 2 / expected).sum()
        # 59 degrees of freedom: P(chi2 > 130) < 1e-6
        assert chi2 < 130

    def test_zero_counts_place_nothing(self):
        rng = np.random.Generator(np.random.Philox(1))
        for counts in (np.zeros(16, int), np.r_[7, np.zeros(15, int)]):
            assert len(campaign._place_clicks(rng, counts)) == 0


class TestAtomicWrite:
    def test_str_and_block_iterables_write_the_same_file(self, tmp_path):
        text = "trial,detector,window\n5,1,pump\n12,2,read\n"
        blocks = [text[:7], text[7:30], text[30:]]
        campaign.atomic_write(tmp_path / "str.csv", text)
        campaign.atomic_write(tmp_path / "strs.csv", iter(blocks))
        campaign.atomic_write(tmp_path / "bytes.csv", (b.encode() for b in blocks))
        for name in ("str.csv", "strs.csv", "bytes.csv"):
            assert (tmp_path / name).read_bytes() == text.encode()

    def test_failure_mid_iteration_leaves_no_file(self, tmp_path):
        def blocks():
            yield b"trial,detector,window\n"
            raise RuntimeError("disk full")

        with pytest.raises(RuntimeError, match="disk full"):
            campaign.atomic_write(tmp_path / "log.csv", blocks())
        assert list(tmp_path.iterdir()) == []
