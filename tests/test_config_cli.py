"""Config parsing and the command-line surface."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace

import pytest

from mechlink import campaign, cli, planner, protocol
from mechlink.campaign import CHUNK_TRIALS, code_counts, run_campaign
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

    def test_removed_flux_imbalance_key_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINIMAL + "\n[analysis]\nflux_imbalance = 0.075\n")
        rc = cli.main(["witness", "--config", str(cfg), "--out",
                       str(tmp_path / "o")])
        assert rc == 2
        assert "[analysis] flux_imbalance" in capsys.readouterr().err

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

    @pytest.mark.parametrize("key", ["cutoff", "mech_cutoff", "jitter_nodes"])
    def test_removed_cutoff_keys_rejected(self, key, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINIMAL.replace("tau_ns = 123",
                                                  f"tau_ns = 123\n{key} = 5"))
        rc = cli.main(["witness", "--config", str(cfg), "--out",
                       str(tmp_path / "o")])
        assert rc == 2
        assert f"[protocol] {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["g2_grid_step", "g2_max"])
    def test_removed_g2_grid_keys_rejected(self, key, tmp_path, capsys):
        tally_json = os.path.abspath(cfg_dir("witness_run_tally.json"))
        cfg = write_cfg(tmp_path, f"[analyze]\ntally_json = {tally_json}\n"
                                  f"[analysis]\n{key} = 0.01\n")
        rc = cli.main(["analyze", "--config", str(cfg), "--out",
                       str(tmp_path / "o")])
        assert rc == 2
        assert f"[analysis] {key}" in capsys.readouterr().err

    def test_runtime_error_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, "[analyze]\ntally_json = /nonexistent.json\n")
        rc = cli.main(["analyze", "--config", str(cfg), "--out",
                       str(tmp_path / "o")])
        assert rc == 3

    def test_read_background_outside_the_formula_range_fails(self, tmp_path,
                                                               capsys):
        # 1e-2 dark clicks per read window over a 5e-3 detection scale
        text = (MINIMAL.replace("p_pump = 0.005", "p_pump = 0.005\np_read = 0.01")
                .replace("p_pump = 0.006", "p_pump = 0.006\np_read = 0.01")
                .replace("eta_2 = 1.0", "eta_2 = 1.0\np_dark_read_2 = 0.01")
                .replace("trials = 1000", "trials = 500000")
                + "[sweep]\ntau_ns_list = 123, 124, 125, 126, 127\n")
        rc = cli.main(["time-sweep", "--config", str(write_cfg(tmp_path, text)),
                       "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "NoiseModelError: n_bg=2.0 outside the validity range [0, 0.5)" in err

    def test_byte_identical_reruns(self, tmp_path):
        runs = {
            "phase-sweep": (MINIMAL + "\n[sweep]\ndelta_phi_pi_list = "
                            "0, 0.5, 1.0, 1.5, 1.9\n", "5000000"),
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


class TestFormulaBound:
    def test_background_is_referred_to_the_read_window_efficiency(self):
        # a read-window throughput 1.35 times the pump window's divides the
        # per-phonon background as dividing the read dark probability does
        run = parse_config(cfg_dir("entangle_realistic.cfg"))
        det = run.protocol.detectors
        assert det.read_eta_scale == 1.35

        def with_detectors(**kw):
            return replace(run, protocol=replace(run.protocol, detectors=replace(det, **kw)))

        unit = with_detectors(read_eta_scale=1.0)
        for i in range(2):
            for j in range(2):
                assert protocol.read_detection_scale(run.protocol, i, j) == pytest.approx(
                    1.35 * protocol.read_detection_scale(unit.protocol, i, j), rel=1e-15)
        darker = with_detectors(read_eta_scale=1.0,
                                p_dark_read=(det.p_dark_read[0], det.p_dark_read[1] / 1.35))
        tau = run.protocol.tau
        bound = cli._formula_bound(run, tau)
        assert bound == pytest.approx(cli._formula_bound(darker, tau), rel=1e-12)
        assert abs(bound - cli._formula_bound(unit, tau)) > 1e-4


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

    def test_sweep_fit_rows_name_their_estimators(self, tmp_path):
        text = MINIMAL + "\n[sweep]\ntau_ns_list = 123, 124.5, 126, 127.5, 129\n"
        out = tmp_path / "sweep"
        assert cli.main(["time-sweep", "--config", str(write_cfg(tmp_path, text)),
                         "--out", str(out), "--trials", "5000000"]) == 0
        rows = json.loads((out / "sweep_fit.json").read_text())["visibility"]
        assert len(rows) == 1
        assert rows[0].keys() == {"tau_ns", "sampled", "exact", "bound_exact",
                                  "bound_formula", "sampled_estimator",
                                  "exact_estimator"}
        for key in ("sampled_estimator", "exact_estimator"):
            assert rows[0][key].keys() == {"cross", "same"}
            assert set(rows[0][key].values()) <= {"fit_fringe", "visibility"}

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
        assert all(0.0 <= s["witness_offgrid_mass"] < 0.01
                   for s in doc["separations"].values())
        assert (out / "fiber.txt").read_text().startswith("baseline")

    @pytest.mark.parametrize("dilution", ["on", "off"])
    @pytest.mark.parametrize("decay", ["on", "off"])
    def test_plan_fiber_default_budget_follows_the_link_flags(self, tmp_path,
                                                              dilution, decay):
        with open(cfg_dir("plan_fiber.cfg")) as f:
            text = f.read() + f"herald_dilution = {dilution}\ninclude_decay = {decay}\n"
        out = tmp_path / "fiber"
        rc = cli.main(["plan-fiber", "--config", str(write_cfg(tmp_path, text)),
                       "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "fiber.json").read_text())
        link = cli._link_from_config(parse_config(str(tmp_path / "run.cfg")).plan_fiber)
        assert (link.herald_dilution, link.include_decay) == (dilution == "on",
                                                              decay == "on")
        expected = {
            "arm_a_db": planner.required_added_db(link.budget_a, 7.1, link.tau,
                                                  link.herald_dilution,
                                                  link.include_decay),
            "arm_b_db": planner.required_added_db(link.budget_b, 7.1, link.tau,
                                                  link.herald_dilution,
                                                  link.include_decay),
        }
        assert doc["required_db_default"] == expected
        key = f"dilution={dilution},decay={decay}"
        assert doc["required_db_combinations"][key] == expected
