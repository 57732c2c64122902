"""Config parsing and the command-line surface."""

import configparser
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from mechlink import campaign, cli, config, planner, protocol, stats
from mechlink.campaign import CHUNK_TRIALS, code_counts, run_campaign
from mechlink.config import ConfigError, parse_config
from mechlink.devices import (DetectorModel, DeviceParams, InterferometerConfig,
                              ProtocolConfig)


def cfg_dir(name):
    return os.path.join(os.path.dirname(__file__), "..", "configs", name)

MINIMAL = """
[device.A]
p_pump = 0.005
[device.B]
p_pump = 0.006
[interferometer]
phi0_rad = 0.0
[detectors]
eta_1 = 1.0
eta_2 = 1.0
[protocol]
tau_ns = 123
[campaign]
trials = 1000
seed = 7
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, MINIMAL))
        assert cfg.protocol is not None
        assert cfg.protocol.device_a.p_pump == 0.005
        assert cfg.protocol.device_a.p_read == 0.034
        assert cfg.protocol.tau == pytest.approx(123e-9)
        assert cfg.seed == 7 and cfg.trials == 1000
        assert cfg.snapshot()["campaign"]["seed"] == "7"

    def test_pump_guard_rejected(self, tmp_path):
        bad = MINIMAL.replace("p_pump = 0.005", "p_pump = 0.2")
        with pytest.raises(ConfigError, match="0.05"):
            parse_config(write_cfg(tmp_path, bad))

    def test_unknown_key_rejected(self, tmp_path):
        bad = MINIMAL + "\n[protocol]\n"  # duplicate section
        with pytest.raises(ConfigError):
            parse_config(write_cfg(tmp_path, bad))
        bad2 = MINIMAL.replace("tau_ns = 123", "tau_nanoseconds = 123")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(write_cfg(tmp_path, bad2))

    def test_duplicate_key_rejected(self, tmp_path):
        bad = MINIMAL.replace("trials = 1000", "trials = 1000\ntrials = 2000")
        with pytest.raises(ConfigError, match="malformed"):
            parse_config(write_cfg(tmp_path, bad))

    def test_all_violations_collected(self, tmp_path):
        bad = (MINIMAL.replace("p_pump = 0.005", "p_pump = 0.2")
                      .replace("eta_1 = 1.0", "eta_1 = 1.7"))
        with pytest.raises(ConfigError) as err:
            parse_config(write_cfg(tmp_path, bad))
        text = "; ".join(err.value.violations)
        assert "p_pump" in text and "efficiency" in text

    def test_non_finite_values_are_refused_on_their_key(self, tmp_path):
        # nan once ran as the sigma = 0 answer (`sigma > 0` is false for
        # nan) or failed mid-run with messages that named no key
        paths = ("tally_json", "clicklog_csv", "clicklog_meta", "data_csv")
        shipped = [name for name in sorted(os.listdir(cfg_dir(""))) if name.endswith(".cfg")]
        for name in shipped:
            parser = configparser.ConfigParser(interpolation=None)
            parser.read(cfg_dir(name))
            keys = [(s, k) for s in parser.sections() for k in parser[s] if k not in paths]
            for (section, key), value in itertools.product(keys, ("nan", "inf", "-inf")):
                edited = configparser.ConfigParser(interpolation=None)
                edited.read_dict(parser)
                edited[section][key] = value
                with open(tmp_path / name, "w") as fh:
                    edited.write(fh)
                with pytest.raises(ConfigError) as err:
                    parse_config(tmp_path / name)
                assert f"[{section}] {key}" in str(err.value), (name, value)

    def test_unit_suffixed_keys_convert(self, tmp_path):
        text = MINIMAL + """
[sweep]
delta_phi_pi_list = 0, 0.5, 1.0
"""
        cfg = parse_config(write_cfg(tmp_path, text))
        assert cfg.delta_phi_sweep == pytest.approx(
            (0.0, 0.5 * math.pi, math.pi))

    # every knob live: a bath to decay, a leak to scale, a path loss on
    # one arm, and the serrodyne off with envelopes short enough to keep
    # some of the fringe
    LIVE = {
        "device.A": {"bath_k_per_us": "0.8", "n_leak": "0.037"},
        "device.B": {"bath_k_per_us": "0.4", "n_leak": "0.037", "eta_path": "0.9"},
        "interferometer": {"serrodyne": "off", "envelope_sigma_ns": "1.0"},
        "detectors": {"p_dark_pump_1": "5e-5", "p_dark_read_2": "5e-5"},
        "protocol": {"tau_ns": "123"},
    }
    SIM_KEYS = [(section, key) for section in LIVE
                for key in config._SCHEMA[section]]

    @pytest.mark.parametrize("section,key", SIM_KEYS)
    def test_every_simulation_key_reaches_the_model(self, section, key, tmp_path):
        # a key that sets nothing, or sets a field no model reads, fails here
        def build(sections):
            text = "".join(f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
                           for s, kv in sections.items())
            return parse_config(write_cfg(tmp_path, text)).protocol

        caster = config._SCHEMA[section][key]
        value = {float: "0.003", str: "A", config._parse_bool: "on"}[caster]
        assert self.LIVE.get(section, {}).get(key) != value
        base = build(self.LIVE)
        changed = build({**self.LIVE, section: {**self.LIVE[section], key: value}})
        assert changed != base
        assert not np.array_equal(protocol.build_trial_model(changed).joint,
                                  protocol.build_trial_model(base).joint)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "absent.cfg")

    def test_shipped_configs_parse(self):
        root = os.path.join(os.path.dirname(__file__), "..", "configs")
        for name in os.listdir(root):
            if name.endswith(".cfg"):
                parse_config(os.path.join(root, name))


class TestCliRuns:
    def test_witness_subcommand_end_to_end(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL + "\n[output]\nsave_clicklog = on\n")
        out = tmp_path / "out"
        rc = cli.main(["witness", "--config", str(cfg), "--out", str(out),
                       "--trials", "300000"])
        assert rc == 0
        names = {p.name for p in out.iterdir()}
        assert {"witness.json", "tally.json", "manifest.json",
                "clicklog.csv", "clicklog_meta.json"} <= names
        doc = json.loads((out / "witness.json").read_text())
        assert doc["tally"]["N"] == 300000
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "witness"
        assert len(manifest["config_sha256"]) == 64

    def test_analyze_click_log_reproduces_witness_tally(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL + "\n[output]\nsave_clicklog = on\n")
        out = tmp_path / "out"
        rc = cli.main(["witness", "--config", str(cfg), "--out", str(out),
                       "--trials", "300000"])
        assert rc == 0
        analyze = write_cfg(tmp_path, "[analyze]\nclicklog_csv = out/clicklog.csv\n"
                            "clicklog_meta = out/clicklog_meta.json\n", "analyze.cfg")
        rc = cli.main(["analyze", "--config", str(analyze), "--out",
                       str(tmp_path / "re")])
        assert rc == 0
        tally = (out / "tally.json").read_bytes()
        assert json.loads(tally)["Cr1p1"] > 0
        assert (tmp_path / "re" / "tally.json").read_bytes() == tally

    def test_analyze_click_log_without_metadata_fails(self, tmp_path, capsys):
        # trials without a click leave no row: the log alone cannot give N,
        # so the config is refused, with its other violations, before the
        # log is read
        cfg = write_cfg(tmp_path, MINIMAL + "\n[output]\nsave_clicklog = on\n")
        assert cli.main(["witness", "--config", str(cfg), "--out",
                         str(tmp_path / "out"), "--trials", "300000"]) == 0
        analyze = write_cfg(tmp_path, "[analyze]\nclicklog_csv = out/clicklog.csv\n"
                            "clicklog = out/clicklog_meta.json\n", "analyze.cfg")
        out = tmp_path / "re"
        assert cli.main(["analyze", "--config", str(analyze), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "unknown key [analyze] clicklog" in err
        assert "[analyze] clicklog_csv needs clicklog_meta" in err
        assert not (out / "witness.json").exists()

    def test_witness_releases_its_log_before_the_report(self, tmp_path, monkeypatch):
        refs, released = [], []

        def sampled(*args, **kwargs):
            log = run_campaign(*args, **kwargs)
            refs.append(weakref.ref(log))
            return log

        def report(*args, **kwargs):
            released.append([ref() is None for ref in refs])
            return witness_report(*args, **kwargs)

        witness_report = cli._witness_report
        monkeypatch.setattr(cli, "run_campaign", sampled)
        monkeypatch.setattr(cli, "_witness_report", report)
        cfg = write_cfg(tmp_path, MINIMAL + "\n[output]\nsave_clicklog = on\n")
        out = tmp_path / "out"
        assert cli.main(["witness", "--config", str(cfg), "--out", str(out),
                         "--trials", "300000"]) == 0
        assert released == [[True]]
        assert (out / "clicklog.csv").read_text().startswith("trial,detector,window\n")

    def test_sweeps_sample_no_log(self, tmp_path, monkeypatch):
        def no_log(*args, **kwargs):
            raise AssertionError("a sweep sampled a click log")

        monkeypatch.setattr(cli, "run_campaign", no_log)
        text = (MINIMAL + "\n[sweep]\ndelta_phi_pi_list = 0, 0.5, 1.0, 1.5, 1.9\n"
                "tau_ns_list = 123, 124.5, 126, 127.5, 129\n")
        cfg = write_cfg(tmp_path, text)
        n = 8 * CHUNK_TRIALS + 1234
        for command in ("phase-sweep", "time-sweep"):
            assert cli.main([command, "--config", str(cfg), "--out",
                             str(tmp_path / command), "--trials", str(5 * n)]) == 0
        # a point's counts draw holds a tenth of the log of its clicked
        # trials, 5 bytes each, at most
        model = protocol.build_trial_model(parse_config(str(cfg)).protocol)
        tracemalloc.start()
        try:
            counts = code_counts(model, n, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * counts[1:].sum() / 10

    def test_witness_without_a_log_writes_the_same_report(self, tmp_path, monkeypatch):
        def report(save):
            cfg = write_cfg(tmp_path, MINIMAL + f"\n[output]\nsave_clicklog = {save}\n")
            assert cli.main(["witness", "--config", str(cfg), "--out",
                             str(tmp_path / save), "--trials", "2200000"]) == 0
            return {name: (tmp_path / save / name).read_bytes()
                    for name in ("witness.json", "tally.json")}

        with_log = report("on")
        monkeypatch.setattr(cli, "run_campaign", None)    # the off run samples no log
        assert report("off") == with_log
        assert (tmp_path / "on" / "clicklog.csv").exists()
        assert not (tmp_path / "off" / "clicklog.csv").exists()

    def test_witness_draws_each_chunk_once(self, tmp_path, monkeypatch):
        keys = []
        chunk_rng = campaign._chunk_rng

        def counted(*key):
            keys.append(key)
            return chunk_rng(*key)

        monkeypatch.setattr(campaign, "_chunk_rng", counted)
        cfg = write_cfg(tmp_path, MINIMAL + "\n[output]\nsave_clicklog = on\n")
        assert cli.main(["witness", "--config", str(cfg), "--out", str(tmp_path / "out"),
                         "--trials", str(2 * CHUNK_TRIALS + 5)]) == 0
        # the tally and the log it writes share one generator a chunk
        assert keys == [(7, 0, 0), (7, 0, 1), (7, 0, 2)]
        assert (tmp_path / "out" / "clicklog.csv").exists()

    def test_witness_without_read_clicks_exits_3(self, tmp_path, capsys):
        # g2 = N C_rp / (C_r C_p) has no value when a read detector saw no
        # click, so the run stops before writing a report
        cfg = write_cfg(tmp_path, MINIMAL)
        model = protocol.build_trial_model(parse_config(str(cfg)).protocol)
        read_singles = code_counts(model, 20_000, seed=7) @ protocol.CODE_SLOTS[:, 2:]
        assert 0 in read_singles
        out = tmp_path / "out"
        assert cli.main(["witness", "--config", str(cfg), "--out", str(out),
                         "--trials", "20000"]) == 3
        assert "error: StatsError: zero read singles" in capsys.readouterr().err
        assert not (out / "witness.json").exists()
        assert not (out / "manifest.json").exists()

    def test_sparse_phase_sweep_writes_its_report(self, tmp_path):
        # a few read clicks a point resolve no fringe: the fit comes back
        # flagged, and the run still writes its report
        text = MINIMAL + "\n[sweep]\ndelta_phi_pi_list = 0, 0.5, 1.0, 1.5, 1.9\n"
        out = tmp_path / "out"
        assert cli.main(["phase-sweep", "--config", str(write_cfg(tmp_path, text)),
                         "--out", str(out), "--trials", "50000"]) == 0
        # the report is standard JSON: the unresolved period is null, not NaN
        def no_constant(name):
            raise AssertionError(f"non-standard JSON constant {name}")

        docs = {p.name: json.loads(p.read_text(), parse_constant=no_constant)
                for p in out.glob("*.json")}
        assert set(docs) == {"fringe_fit.json", "manifest.json"}
        fit = docs["fringe_fit.json"]
        assert fit["flagged"] is True
        assert fit["period_pi"] is None and fit["period_error_pi"] is None
        assert fit["period_pi_exact"] > 0

    @pytest.mark.parametrize("command, sweep, violations", [
        # an unsorted list once mixed 123 and 1000 ns in one window
        ("time-sweep", "tau_ns_list = 1000, 123, 1004.44, 1008.88, 1013.32, 1017.76",
         ["[sweep] tau_ns_list must be non-negative and strictly increasing"]),
        ("time-sweep", "tau_ns_list = -4, 0, 4, 8, 12",
         ["[sweep] tau_ns_list must be non-negative and strictly increasing"]),
        ("time-sweep", "tau_ns_list = 123, 124, 125, 126, 1000, 1001",
         ["[sweep] time-sweep needs at least 5 points in its first tau_ns_list "
          "window for the period fit, got 4",
          "[sweep] the tau_ns_list window at 1000 ns needs at least 3 points, got 2"]),
        ("phase-sweep", "delta_phi_pi_list = 0, 0.5, 1.0, 1.5",
         ["[sweep] phase-sweep needs at least 5 delta_phi_pi_list phases for its "
          "period fit, got 4"]),
    ])
    def test_bad_sweep_is_a_config_error(self, command, sweep, violations,
                                         tmp_path, capsys):
        # every violation is listed, and nothing is sampled or written
        cfg = write_cfg(tmp_path, MINIMAL + f"[sweep]\n{sweep}\n")
        out = tmp_path / "o"
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: {v}" for v in violations]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command, shipped, key, value, args", [
        ("plan-fiber", "plan_fiber.cfg", "separation_km_list", "-10", []),
        ("plan-fiber", "plan_fiber.cfg", "sigma_clearance", "0", []),
        ("plan-fiber", "plan_fiber.cfg", "sigma_clearance", "-3", []),
        ("pump-probe", "pump_probe.cfg", "t_max_us", "-1", []),
        ("pump-probe", "pump_probe.cfg", "samples", "4", []),
        ("pump-probe", "pump_probe.cfg", "noise_fraction", "-0.02", []),
        ("pump-probe", "pump_probe.cfg", "seed", "-1", []),
        ("plan-yield", "plan_yield_pair.cfg", "mc_reps", "0", []),
        ("plan-yield", "plan_yield_pair.cfg", "seed", "-1", []),
        # the planner's own types refuse these; chips = 1 once read as two
        # offsets too many
        ("plan-yield", "plan_yield_pair.cfg", "window_mhz", "-5", []),
        ("plan-yield", "plan_yield_pair.cfg", "devices_per_chip", "0", []),
        ("plan-yield", "plan_yield_pair.cfg", "sigma_nm_list", "-1", []),
        ("plan-yield", "plan_yield_pair.cfg", "chips", "1", []),
        ("plan-fiber", "plan_fiber.cfg", "attenuation_db_per_km", "-0.17", []),
        ("plan-fiber", "plan_fiber.cfg", "contrast_retention", "1.5", []),
        ("plan-fiber", "plan_fiber.cfg", "overhead_fraction", "1", []),
        ("plan-fiber", "plan_fiber.cfg", "repetition_us", "0", []),
        ("plan-fiber", "plan_fiber.cfg", "herald_prob", "0", []),
        ("plan-fiber", "plan_fiber.cfg", "a_n_th", "0.7", []),
        ("plan-fiber", "plan_fiber.cfg", "b_gamma_per_us", "-1", []),
        # these once planned at exit 0: a carrier read through its square,
        # a zero window, g2 at a negative delay
        ("plan-yield", "plan_yield_pair.cfg", "carrier_nm", "-1550", []),
        ("plan-yield", "plan_yield_pair.cfg", "carrier_nm", "0", []),
        ("plan-fiber", "plan_fiber.cfg", "tau_ns", "-123", []),
        ("witness", None, "seed", "-1", []),
        ("witness", None, "seed", "7", ["--seed", "-1"]),
    ])
    def test_out_of_range_input_is_a_config_error(self, command, shipped, key, value,
                                                  args, tmp_path, capsys):
        # each once ran on (a negative separation, a descending time grid,
        # noise read as none) or failed mid-run with exit 3
        if shipped is None:
            text = MINIMAL
        else:
            with open(cfg_dir(shipped)) as f:
                text = f.read()
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        out = tmp_path / "o"
        assert cli.main([command, "--config", str(write_cfg(tmp_path, text)),
                         "--out", str(out), *args]) == 2
        assert f"] {key} must be" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("section, key, value", [
        ("device.A", "gamma_per_us", "-1"),
        ("device.A", "bath_k_per_us", "-1"),
        ("protocol", "tau_ns", "-5"),
        ("detectors", "eta_1", "1.5"),
        ("detectors", "p_dark_read_2", "0.5"),
    ])
    def test_simulation_errors_name_the_key(self, section, key, value, tmp_path,
                                            capsys):
        # each once named the field its key sets (gamma_decay, tau) or no
        # key at all ("p_dark=0.5 outside [0, 1e-2]")
        with open(cfg_dir("entangle_stats.cfg")) as f:
            text = f.read()
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, count=1, flags=re.M)
        out = tmp_path / "o"
        assert cli.main(["witness", "--config", str(write_cfg(tmp_path, text)),
                         "--out", str(out)]) == 2
        assert f"[{section}] {key} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_range_checks_keep_the_valid_edges(self, tmp_path):
        # a zero separation is a plan; a measured trace ignores the
        # synthesis keys
        with open(cfg_dir("plan_fiber.cfg")) as f:
            text = f.read().replace("separation_km_list = 75, 94", "separation_km_list = 0")
        assert cli.main(["plan-fiber", "--config", str(write_cfg(tmp_path, text)),
                         "--out", str(tmp_path / "fiber")]) == 0
        assert "separation 0 km: split A 0 / B 0 km" in (
            tmp_path / "fiber" / "fiber.txt").read_text()
        from mechlink.noise import pump_probe_model
        t_ns = np.linspace(30, 20000, 12)
        sig = pump_probe_model(t_ns * 1e-9, 0.9, 0.7, 1 / 4.0e-6, 1 / 0.5e-6, 0.08)
        data = tmp_path / "scan.csv"
        data.write_text("t_ns,signal,sigma\n" + "".join(
            f"{a:.6g},{b:.8g},0.005\n" for a, b in zip(t_ns, sig)))
        cfg = write_cfg(tmp_path, f"[pump_probe]\ndata_csv = {data}\nsamples = 4\n"
                                  "t_max_us = -1\nnoise_fraction = -0.02\n", name="pp.cfg")
        assert cli.main(["pump-probe", "--config", str(cfg),
                         "--out", str(tmp_path / "pp")]) == 0

    def test_time_sweep_needs_a_frequency_difference(self, tmp_path, capsys):
        # with equal mechanical frequencies the delay fringe has no period
        cfg = write_cfg(tmp_path, MINIMAL.replace("phi0_rad = 0.0", "mech_freq_diff_mhz = 0")
                        + "[sweep]\ntau_ns_list = 123, 124, 125, 126, 127\n")
        out = tmp_path / "o"
        assert cli.main(["time-sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert "non-zero mech_freq_diff_mhz" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("cfg_trials, cli_trials", [
        ("1000", ["--trials", "0"]), ("1000", ["--trials", "-5"]), ("0", [])])
    def test_trials_below_one_is_a_config_error(self, cfg_trials, cli_trials,
                                                tmp_path, capsys):
        # checked on the count the run uses, after the command line overrides
        cfg = write_cfg(tmp_path, MINIMAL.replace("trials = 1000", f"trials = {cfg_trials}")
                        + "[sweep]\ndelta_phi_pi_list = 0, 0.4, 0.8, 1.2, 1.6\n")
        for command in ("witness", "phase-sweep"):
            rc = cli.main([command, "--config", str(cfg), "--out",
                           str(tmp_path / "o"), *cli_trials])
            assert rc == 2
            assert capsys.readouterr().err == (
                "config error: [campaign] trials must be at least 1\n")

    def test_seed_required_for_simulation(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL.replace("seed = 7", ""))
        rc = cli.main(["witness", "--config", str(cfg), "--out",
                       str(tmp_path / "o")])
        assert rc == 2

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL.replace("p_pump = 0.005",
                                                  "p_pump = 0.9"))
        rc = cli.main(["witness", "--config", str(cfg), "--out",
                       str(tmp_path / "o")])
        assert rc == 2

    def test_removed_heating_slices_key_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINIMAL.replace("tau_ns = 123",
                                                  "tau_ns = 123\nheating_slices = 16"))
        rc = cli.main(["witness", "--config", str(cfg), "--out",
                       str(tmp_path / "o")])
        assert rc == 2
        assert "[protocol] heating_slices" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("balance_attenuation", "0.9"),
                                            ("balance_arm", "A")])
    def test_removed_balance_keys_rejected(self, key, value, tmp_path, capsys):
        # a loss on one arm is that device's eta_path
        cfg = write_cfg(tmp_path, MINIMAL.replace("phi0_rad = 0.0",
                                                  f"phi0_rad = 0.0\n{key} = {value}"))
        rc = cli.main(["witness", "--config", str(cfg), "--out",
                       str(tmp_path / "o")])
        assert rc == 2
        assert f"[interferometer] {key}" in capsys.readouterr().err

    def test_removed_flux_imbalance_key_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINIMAL + "\n[analysis]\nflux_imbalance = 0.075\n")
        rc = cli.main(["witness", "--config", str(cfg), "--out",
                       str(tmp_path / "o")])
        assert rc == 2
        assert "unknown section [analysis]" in capsys.readouterr().err

    def test_shipped_config_has_no_separable_twin_below_threshold(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["witness", "--config", cfg_dir("entangle_stats.cfg"), "--out",
                         str(out), "--trials", "10000000"]) == 0
        doc = json.loads((out / "witness.json").read_text())
        exact = doc["exact"]
        for det in (1, 2):
            assert exact[f"separable_bound_det{det}"] > 1e5
            assert exact[f"bound_from_exact_g2_det{det}"] < 1.0
        assert exact["separable_below_threshold"] is False
        assert "corrected_threshold" not in doc["witness_symmetrized"]

    def test_singles_at_rounding_level_leave_the_separable_bounds_undefined(self):
        # no light reaches either detector: the pump singles are rounding
        # residue (2.2e-16), which a g2 would turn into a bound of -1e-13
        dev = DeviceParams(p_pump=0.0, p_read=0.0, eta_path=0.0)
        proto = ProtocolConfig(device_a=dev, device_b=dev,
                               interferometer=InterferometerConfig(),
                               detectors=DetectorModel(eta=(0.0, 0.0),
                                                       p_dark_read=(0.0, 0.0078)))
        model = protocol.build_trial_model(proto)
        assert 0 < model.pump_click_prob(1) <= protocol._TABLE_TOL
        for i in (1, 2):
            for j in (1, 2):
                with pytest.raises(protocol.ProtocolError, match="zero singles"):
                    model.g2_exact(i, j)
        assert cli._separable_bounds(proto) == {
            "separable_bound_det1": None, "separable_bound_det2": None,
            "separable_below_threshold": False}

    @pytest.mark.parametrize("key", ["cutoff", "mech_cutoff", "jitter_nodes"])
    def test_removed_cutoff_keys_rejected(self, key, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINIMAL.replace("tau_ns = 123",
                                                  f"tau_ns = 123\n{key} = 5"))
        rc = cli.main(["witness", "--config", str(cfg), "--out",
                       str(tmp_path / "o")])
        assert rc == 2
        assert f"[protocol] {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["omega_m_ghz", "wavelength_nm", "q_factor",
                                     "g0_khz"])
    def test_removed_device_keys_rejected(self, key, tmp_path, capsys):
        # no model reads a device's own frequency, wavelength, Q or g0: only
        # [interferometer] mech_freq_diff_mhz enters
        cfg = write_cfg(tmp_path, MINIMAL.replace("p_pump = 0.006",
                                                  f"p_pump = 0.006\n{key} = 5.1"))
        rc = cli.main(["witness", "--config", str(cfg), "--out",
                       str(tmp_path / "o")])
        assert rc == 2
        assert f"[device.B] {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["herald_dilution", "include_decay", "g2_floor"])
    def test_removed_fiber_formula_keys_rejected(self, key, tmp_path, capsys):
        # plan-fiber evaluates one loss formula: herald dilution and the
        # e^{-decay tau} factor always apply, and its one floor is the
        # plan's own, set by contrast_retention
        with open(cfg_dir("plan_fiber.cfg")) as f:
            cfg = write_cfg(tmp_path, f.read() + f"{key} = off\n")
        rc = cli.main(["plan-fiber", "--config", str(cfg), "--out",
                       str(tmp_path / "o")])
        assert rc == 2
        assert f"[plan.fiber] {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["g2_grid_step", "g2_max", "witness_grid_step",
                                     "classicality_threshold"])
    def test_removed_g2_grid_keys_rejected(self, key, tmp_path, capsys):
        # the witness grid step and the classicality threshold are fixed:
        # no [analysis] section is left
        tally_json = os.path.abspath(cfg_dir("witness_run_tally.json"))
        cfg = write_cfg(tmp_path, f"[analyze]\ntally_json = {tally_json}\n"
                                  f"[analysis]\n{key} = 0.01\n")
        rc = cli.main(["analyze", "--config", str(cfg), "--out",
                       str(tmp_path / "o")])
        assert rc == 2
        assert "unknown section [analysis]" in capsys.readouterr().err

    def test_runtime_error_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, "[analyze]\ntally_json = /nonexistent.json\n")
        rc = cli.main(["analyze", "--config", str(cfg), "--out",
                       str(tmp_path / "o")])
        assert rc == 3

    def test_read_background_outside_the_formula_range_sweeps(self, tmp_path):
        # 1e-2 dark clicks per read window over a 5e-3 detection scale, a
        # per-phonon background of 2 that the closed-form ceiling cannot
        # take: the window's ceiling is the exact one
        text = (MINIMAL.replace("p_pump = 0.005", "p_pump = 0.005\np_read = 0.01")
                .replace("p_pump = 0.006", "p_pump = 0.006\np_read = 0.01")
                .replace("eta_2 = 1.0", "eta_2 = 1.0\np_dark_read_2 = 0.01")
                .replace("trials = 1000", "trials = 500000")
                + "[sweep]\ntau_ns_list = 123, 124, 125, 126, 127\n")
        cfg = parse_config(str(write_cfg(tmp_path, text)))
        scale = protocol.read_detection_scale(cfg.protocol, 0, 1)
        assert 0.01 / scale == pytest.approx(2.0)
        out = tmp_path / "o"
        assert cli.main(["time-sweep", "--config", str(tmp_path / "run.cfg"),
                         "--out", str(out)]) == 0
        header, row = (out / "visibility.csv").read_text().splitlines()
        assert header == "tau_ns,v_sampled,v_exact,v_bound_exact"
        assert float(row.split(",")[3]) == pytest.approx(
            protocol.exact_visibility_ceiling(cfg.protocol.with_tau(125e-9)), rel=1e-9)

    def test_byte_identical_reruns(self, tmp_path):
        runs = {
            "phase-sweep": (MINIMAL + "\n[sweep]\ndelta_phi_pi_list = "
                            "0, 0.5, 1.0, 1.5, 1.9\n", "5000000"),
            # two windows, each with its own contrast row
            "time-sweep": (MINIMAL + "\n[sweep]\ntau_ns_list = "
                           "123, 127.44, 131.88, 136.32, 140.76, 1000, 1004.44, "
                           "1008.88\n", "8000000"),
            # a log of three chunks, the last one short
            "witness": (MINIMAL + "\n[output]\nsave_clicklog = on\n",
                        str(2 * CHUNK_TRIALS + 1234)),
        }
        for subcommand, (text, trials) in runs.items():
            cfg = write_cfg(tmp_path, text, name=f"{subcommand}.cfg")
            outs = []
            for tag in ("a", "b"):
                out = tmp_path / subcommand / tag
                rc = cli.main([subcommand, "--config", str(cfg), "--out",
                               str(out), "--trials", trials])
                assert rc == 0
                outs.append({p.name: p.read_bytes() for p in out.iterdir()})
            assert outs[0] == outs[1]
        assert (tmp_path / "witness" / "a" / "clicklog.csv").exists()

    def test_no_command_loads_scipy(self, tmp_path):
        # every command runs on numpy alone; scipy is a dependency of the
        # Fock reference engine and of the tests only
        script = (
            "import json, sys\n"
            "from mechlink import cli\n"
            "def heavy():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m == 'scipy' or m.startswith('scipy.'))\n"
            "loaded = {'import': heavy()}\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert cli.main(argv) == 0, argv\n"
            "    loaded[argv[0]] = heavy()\n"
            "print(json.dumps(loaded))\n")
        cfg = write_cfg(tmp_path, MINIMAL + "\n[sweep]\n"
                        "delta_phi_pi_list = 0, 0.4, 0.8, 1.2, 1.6\n"
                        "tau_ns_list = 1000, 1004.44, 1008.88, 1013.32, 1017.76\n")
        runs = [["witness", "--config", str(cfg), "--trials", "300000"],
                ["plan-fiber", "--config", cfg_dir("plan_fiber.cfg")],
                ["plan-yield", "--config", cfg_dir("plan_yield_pair.cfg")],
                ["analyze", "--config", cfg_dir("analyze_example.cfg")],
                ["phase-sweep", "--config", str(cfg), "--trials", "100000"],
                ["time-sweep", "--config", str(cfg), "--trials", "100000"],
                ["pump-probe", "--config", cfg_dir("pump_probe.cfg")]]
        for argv in runs:
            argv += ["--out", str(tmp_path / argv[0])]
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(runs)],
            capture_output=True, text=True,
            cwd=os.path.join(os.path.dirname(__file__), ".."))
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout.splitlines()[-1])
        assert loaded == {"import": [], "witness": [], "plan-fiber": [],
                          "plan-yield": [], "analyze": [], "phase-sweep": [],
                          "time-sweep": [], "pump-probe": []}

    def test_planner_loads_no_campaign(self):
        # stats names the click log only in an annotation
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, mechlink.planner\n"
             "print('mechlink.campaign' in sys.modules)"],
            capture_output=True, text=True,
            cwd=os.path.join(os.path.dirname(__file__), ".."))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_sweeps_evaluate_no_witness_moments(self, tmp_path, monkeypatch):
        # only the witness command reads the moment-ratio witness
        def no_moments(*args):
            raise AssertionError("a sweep evaluated witness moments")

        monkeypatch.setattr(protocol, "witness_moments", no_moments)
        cfg = write_cfg(tmp_path, MINIMAL + "\n[sweep]\n"
                        "delta_phi_pi_list = 0, 0.4, 0.8, 1.2, 1.6\n"
                        "tau_ns_list = 123, 124.5, 126, 127.5, 129\n")
        for command in ("phase-sweep", "time-sweep"):
            assert cli.main([command, "--config", str(cfg), "--out",
                             str(tmp_path / command), "--trials", "1000000"]) == 0

    def test_sweeps_fit_the_period_once_a_difference(self, tmp_path, monkeypatch):
        # a phase sweep fits the sampled and the exact difference; a time
        # sweep the sampled difference of its first window; contrasts are
        # read at the known period with no fit of their own
        calls = []
        fit_fringe = stats.fit_fringe

        def counted(*args, **kwargs):
            calls.append(args)
            return fit_fringe(*args, **kwargs)

        monkeypatch.setattr(stats, "fit_fringe", counted)
        cfg = write_cfg(tmp_path, MINIMAL + "\n[sweep]\n"
                        "delta_phi_pi_list = 0, 0.4, 0.8, 1.2, 1.6\n"
                        "tau_ns_list = 123, 124.5, 126, 127.5, 129, 1000, 1001.5, 1003\n")
        for command, expected in (("phase-sweep", 2), ("time-sweep", 1)):
            calls.clear()
            assert cli.main([command, "--config", str(cfg), "--out",
                             str(tmp_path / command), "--trials", "1000000"]) == 0
            assert len(calls) == expected, command

    def test_seed_override_changes_results(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL)
        docs = []
        for seed in ("7", "8"):
            out = tmp_path / f"s{seed}"
            rc = cli.main(["witness", "--config", str(cfg), "--out", str(out),
                           "--seed", seed, "--trials", "300000"])
            assert rc == 0
            docs.append(json.loads((out / "manifest.json").read_text()))
        assert docs[0]["seed"] == 7 and docs[1]["seed"] == 8


class TestAnalyzeRoundTrip:
    def test_emitted_tally_reanalyzes_identically(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL)
        first = tmp_path / "first"
        rc = cli.main(["witness", "--config", str(cfg), "--out", str(first),
                       "--trials", "400000"])
        assert rc == 0
        analyze_cfg = write_cfg(
            tmp_path,
            f"[analyze]\ntally_json = {first / 'tally.json'}\n",
            name="analyze.cfg")
        second = tmp_path / "second"
        rc = cli.main(["analyze", "--config", str(analyze_cfg), "--out",
                       str(second)])
        assert rc == 0
        a = json.loads((first / "witness.json").read_text())
        b = json.loads((second / "witness.json").read_text())
        assert a["witness_symmetrized"] == b["witness_symmetrized"]
        assert a["tally"] == b["tally"]

    def test_published_block_reanalysis(self, tmp_path):
        out = tmp_path / "pub"
        rc = cli.main(["analyze", "--config", cfg_dir("analyze_example.cfg"),
                       "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "witness.json").read_text())
        assert 0.58 <= doc["witness"]["1"]["ml"] <= 0.66
        assert 0.80 <= doc["witness"]["2"]["ml"] <= 0.88
        assert 0.71 <= doc["witness_symmetrized"]["ml"] <= 0.77


class TestReadDetectionScale:
    def test_scale_carries_the_read_window_efficiency(self):
        # a read-window throughput 1.35 times the pump window's scales every
        # device's single-phonon read detection probability by 1.35
        proto = parse_config(cfg_dir("entangle_realistic.cfg")).protocol
        det = proto.detectors
        assert det.read_eta_scale == 1.35
        unit = replace(proto, detectors=replace(det, read_eta_scale=1.0))
        for i in range(2):
            for j in range(2):
                assert protocol.read_detection_scale(proto, i, j) == pytest.approx(
                    1.35 * protocol.read_detection_scale(unit, i, j), rel=1e-15)


class TestEmitFormats:
    def test_fringe_csv_columns(self, tmp_path):
        text = MINIMAL + "\n[sweep]\ndelta_phi_pi_list = 0, 0.4, 0.8, 1.2, 1.6\n"
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "sweep"
        rc = cli.main(["phase-sweep", "--config", str(cfg), "--out", str(out),
                       "--trials", "100000"])
        assert rc == 0
        lines = (out / "fringe.csv").read_text().splitlines()
        assert lines[0].startswith(
            "x,g2_same,g2_same_err_lo,g2_same_err_hi,g2_cross")
        assert len(lines) == 6

    def test_sweep_fit_rows_carry_no_estimator_fields(self, tmp_path):
        text = MINIMAL + ("\n[sweep]\ntau_ns_list = 123, 124.5, 126, 127.5, 129\n"
                          "delta_phi_pi_list = 0, 0.4, 0.8, 1.2, 1.6\n")
        cfg = write_cfg(tmp_path, text)
        for command in ("time-sweep", "phase-sweep"):
            assert cli.main([command, "--config", str(cfg), "--out",
                             str(tmp_path / command), "--trials", "5000000"]) == 0
        rows = json.loads((tmp_path / "time-sweep" / "sweep_fit.json").read_text())[
            "visibility"]
        assert len(rows) == 1
        assert rows[0].keys() == {"tau_ns", "sampled", "exact", "bound_exact"}
        # the phase sweep is one window, reported at the top level
        fit = json.loads((tmp_path / "phase-sweep" / "fringe_fit.json").read_text())
        assert fit.keys() == {"points", "trials_per_point", "period_pi",
                              "period_pi_exact", "period_error_pi", "flagged",
                              "visibility_sampled", "visibility_exact",
                              "herald_probability_exact"}

    def test_phase_sweep_visibility_matches_the_dense_exact_fringe(self, tmp_path):
        # reference: the extrema contrast of the exact same- and
        # cross-detector fringes on 240 phases over one period
        cfg = parse_config(cfg_dir("entangle_stats.cfg"))
        exact = []
        for phi in np.linspace(0.0, 2 * math.pi, 240, endpoint=False):
            model = protocol.build_trial_model(cfg.protocol.with_delta_phi(phi))
            exact += [0.5 * (model.g2_exact(1, 1) + model.g2_exact(2, 2)),
                      0.5 * (model.g2_exact(1, 2) + model.g2_exact(2, 1))]
        reference = stats.visibility(np.array(exact))
        out = tmp_path / "sweep"
        assert cli.main(["phase-sweep", "--config", cfg_dir("entangle_stats.cfg"),
                         "--out", str(out), "--seed", "7"]) == 0
        fit = json.loads((out / "fringe_fit.json").read_text())
        assert fit["visibility_exact"] == pytest.approx(reference, abs=1e-3)

    def test_time_sweep_visibility_matches_the_dense_exact_fringe(self, tmp_path):
        # reference per window: the extrema contrast of the exact same- and
        # cross-detector fringes on 120 read phases at the window's center
        # delay, averaged over the two series
        out = tmp_path / "sweep"
        assert cli.main(["time-sweep", "--config", cfg_dir("time_sweep.cfg"),
                         "--out", str(out), "--seed", "7"]) == 0
        rows = json.loads((out / "sweep_fit.json").read_text())["visibility"]
        assert len(rows) == 3
        proto = parse_config(cfg_dir("time_sweep.cfg")).protocol
        for row in rows:
            at_center = proto.with_tau(row["tau_ns"] * 1e-9)
            same, cross = [], []
            for phi in np.linspace(0.0, 2 * math.pi, 120, endpoint=False):
                model = protocol.build_trial_model(at_center.with_delta_phi(phi))
                same.append(0.5 * (model.g2_exact(1, 1) + model.g2_exact(2, 2)))
                cross.append(0.5 * (model.g2_exact(1, 2) + model.g2_exact(2, 1)))
            reference = 0.5 * (stats.visibility(same) + stats.visibility(cross))
            assert row["exact"] == pytest.approx(reference, abs=2e-3), row["tau_ns"]
            assert row["exact"] <= row["bound_exact"]

    def test_pump_probe_outputs(self, tmp_path):
        out = tmp_path / "pp"
        rc = cli.main(["pump-probe", "--config", cfg_dir("pump_probe.cfg"),
                       "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "pump_probe_fit.json").read_text())
        assert doc["lifetime_us"] == pytest.approx(4.0, rel=0.05)
        assert doc["bath_lifetime_us"] == pytest.approx(0.5, rel=0.05)
        curve = (out / "pump_probe_curve.csv").read_text().splitlines()
        assert curve[0] == "t_ns,signal,sigma,fit"

    def test_plan_yield_output(self, tmp_path):
        out = tmp_path / "py"
        rc = cli.main(["plan-yield", "--config", cfg_dir("plan_yield_pair.cfg"),
                       "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "yield.json").read_text())
        assert doc["analytic"] == pytest.approx(0.999996, abs=1e-5)

    def test_yield_keys_left_out_take_the_planner_defaults(self, tmp_path):
        # window, carrier, repetitions and seed come from YieldModel and
        # multi_chip_yield alone
        cfg = write_cfg(tmp_path, "[plan.yield]\nchips = 2\ndevices_per_chip = 10\n"
                                  "sigma_nm_list = 2.0\noffsets_nm_list = 0.0\n")
        out = tmp_path / "py"
        assert cli.main(["plan-yield", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "yield.json").read_text())
        model = planner.YieldModel(chips=2, devices_per_chip=10,
                                   sigma_nm=(2.0, 2.0), offsets_nm=(0.0, 0.0))
        est = planner.multi_chip_yield(model)
        assert doc["window_nm"] == model.window_nm
        assert doc["mc_reps"] == est.mc_reps == 100_000
        assert (doc["analytic"], doc["monte_carlo"]) == (est.analytic,
                                                         est.monte_carlo)

    def test_pump_probe_csv_ingestion(self, tmp_path):
        from mechlink.noise import pump_probe_model
        t_ns = np.concatenate([np.linspace(30, 2000, 40),
                               np.linspace(2300, 20000, 40)])
        sig = pump_probe_model(t_ns * 1e-9, 0.9, 0.7, 1 / 4.0e-6, 1 / 0.5e-6, 0.08)
        rows = ["t_ns,signal,sigma"]
        rows += [f"{a:.6g},{b:.8g},{0.005:.3g}" for a, b in zip(t_ns, sig)]
        data = tmp_path / "scan.csv"
        data.write_text("\n".join(rows) + "\n")
        cfg = write_cfg(tmp_path, f"[pump_probe]\ndata_csv = {data}\n",
                        name="pp.cfg")
        out = tmp_path / "ppfit"
        rc = cli.main(["pump-probe", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "pump_probe_fit.json").read_text())
        assert doc["lifetime_us"] == pytest.approx(4.0, rel=0.01)

    def test_plan_fiber_cli(self, tmp_path):
        out = tmp_path / "fiber"
        rc = cli.main(["plan-fiber", "--config", cfg_dir("plan_fiber.cfg"),
                       "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "fiber.json").read_text())
        link = cli._link_from_config(parse_config(cfg_dir("plan_fiber.cfg")).plan_fiber)
        sep = doc["max_separation"]
        assert sep["arm_a_db"] == planner.required_added_db(link.budget_a,
                                                            sep["g2_floor"], link.tau)
        assert sep["arm_b_db"] == planner.required_added_db(link.budget_b,
                                                            sep["g2_floor"], link.tau)
        assert not {"g2_floor", "required_db", "required_db_combinations"} & doc.keys()
        assert "75" in doc["separations"]
        # each separation's solve starts from the root of the one before
        first = planner.integration_time(link, 75.0)
        assert doc["separations"]["75"]["trials"] == first.trials
        assert (doc["separations"]["94"]["trials"]
                == planner.integration_time(link, 94.0, first).trials)
        assert all(0.0 <= s["witness_offgrid_mass"] < 0.01
                   for s in doc["separations"].values())
        assert (out / "fiber.txt").read_text().startswith("baseline")

    def test_fiber_txt_reports_the_plans_floor(self, tmp_path):
        out = tmp_path / "fiber"
        assert cli.main(["plan-fiber", "--config", cfg_dir("plan_fiber.cfg"),
                         "--out", str(out)]) == 0
        sep = json.loads((out / "fiber.json").read_text())["max_separation"]
        first, second = (out / "fiber.txt").read_text().splitlines()[:2]
        assert first.endswith(f"; floor {sep['g2_floor']:.2f}")
        assert second == (f"added loss to floor:   A {sep['arm_a_db']:.2f} dB, "
                          f"B {sep['arm_b_db']:.2f} dB")

    # plan_fiber.cfg sets every [plan.fiber] key; one separation keeps a
    # plan to a fraction of a second
    FIBER_BASE = dict(parse_config(cfg_dir("plan_fiber.cfg")).raw["plan.fiber"],
                      separation_km_list="75")
    # the keys the plan reads past the link budget
    FIBER_PLAN_KEYS = ("separation_km_list",)

    @staticmethod
    def plan_fiber(section, tmp_path):
        """The parsed [plan.fiber] block of `section` and its fiber.json."""
        text = "[plan.fiber]\n" + "".join(f"{k} = {v}\n" for k, v in section.items())
        path = str(write_cfg(tmp_path, text))
        assert cli.main(["plan-fiber", "--config", path,
                         "--out", str(tmp_path / "out")]) == 0
        return (parse_config(path).plan_fiber,
                (tmp_path / "out" / "fiber.json").read_bytes())

    @pytest.fixture(scope="class")
    def fiber_base_plan(self, tmp_path_factory):
        assert set(self.FIBER_BASE) == set(config._SCHEMA["plan.fiber"])
        return self.plan_fiber(self.FIBER_BASE, tmp_path_factory.mktemp("base"))

    @pytest.mark.parametrize("key", sorted(config._SCHEMA["plan.fiber"]))
    def test_every_plan_fiber_key_reaches_the_plan(self, key, fiber_base_plan,
                                                   tmp_path):
        # a key that feeds nothing, or feeds only a link field or a report
        # nobody asks for, fails here
        base_pf, base_doc = fiber_base_plan
        value = "60" if key == "separation_km_list" else repr(
            0.9 * float(self.FIBER_BASE[key]))
        pf, doc = self.plan_fiber({**self.FIBER_BASE, key: value}, tmp_path)
        assert doc != base_doc
        if key not in self.FIBER_PLAN_KEYS:
            assert cli._link_from_config(pf) != cli._link_from_config(base_pf)

    def test_link_keys_left_out_take_the_link_budget_defaults(self, tmp_path):
        # only the ten required budget keys: every link field is LinkBudget's own
        with open(cfg_dir("plan_fiber.cfg")) as f:
            text = "".join(line for line in f if line.startswith(("[", "a_", "b_")))
        pf = parse_config(str(write_cfg(tmp_path, text))).plan_fiber
        assert len(pf) == 10
        link = cli._link_from_config(pf)
        assert link == planner.LinkBudget(budget_a=link.budget_a,
                                          budget_b=link.budget_b)
