"""Config parsing and the command-line surface."""

import json
import math
import os
import subprocess
import sys

import pytest

from mechlink import cli
from mechlink.config import ConfigError, parse_config


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

    def test_unit_suffixed_keys_convert(self, tmp_path):
        text = MINIMAL + """
[sweep]
delta_phi_pi_list = 0, 0.5, 1.0
"""
        cfg = parse_config(write_cfg(tmp_path, text))
        assert cfg.delta_phi_sweep == pytest.approx(
            (0.0, 0.5 * math.pi, math.pi))

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
                       "--trials", "20000"])
        assert rc == 0
        names = {p.name for p in out.iterdir()}
        assert {"witness.json", "tally.json", "manifest.json",
                "clicklog.csv", "clicklog_meta.json"} <= names
        doc = json.loads((out / "witness.json").read_text())
        assert doc["tally"]["N"] == 20000
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "witness"
        assert len(manifest["config_sha256"]) == 64

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

    def test_runtime_error_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, "[analyze]\ntally_json = /nonexistent.json\n")
        rc = cli.main(["analyze", "--config", str(cfg), "--out",
                       str(tmp_path / "o")])
        assert rc == 3

    def test_byte_identical_reruns(self, tmp_path):
        text = MINIMAL + "\n[sweep]\ndelta_phi_pi_list = 0, 0.5, 1.0, 1.5, 1.9\n"
        cfg = write_cfg(tmp_path, text)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            rc = cli.main(["phase-sweep", "--config", str(cfg), "--out",
                           str(out), "--trials", "50000"])
            assert rc == 0
            outs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert outs[0] == outs[1]

    def test_worker_env_does_not_change_artifacts(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL)
        blobs = []
        for workers in ("1", "4"):
            out = tmp_path / f"w{workers}"
            env = dict(os.environ, MECHLINK_THREADS=workers)
            proc = subprocess.run(
                [sys.executable, "-m", "mechlink.cli", "witness",
                 "--config", str(cfg), "--out", str(out),
                 "--trials", "2200000"],
                env=env, capture_output=True, text=True,
                cwd=os.path.join(os.path.dirname(__file__), ".."))
            assert proc.returncode == 0, proc.stderr
            blobs.append((out / "tally.json").read_bytes())
        assert blobs[0] == blobs[1]

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

    def test_pump_probe_csv_ingestion(self, tmp_path):
        import numpy as np
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
        assert len(doc["required_db_combinations"]) == 4
        assert "75" in doc["separations"]
        assert (out / "fiber.txt").read_text().startswith("baseline")
