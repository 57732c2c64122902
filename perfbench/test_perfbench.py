"""Tests of the benchmark's own code: python3 -m pytest perfbench"""

from __future__ import annotations

import configparser
import importlib
import json
import math
import pathlib
import re
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _sections(text):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    return {s: dict(parser[s]) for s in parser.sections()}


def test_derived_time_sweep_config_changes_only_window_and_trials():
    shipped = (ROOT / workloads.TIME_SWEEP_CFG).read_text()
    derived = workloads.derive_time_sweep_1us(shipped)
    assert workloads.derive_time_sweep_1us(shipped) == derived

    before, after = _sections(shipped), _sections(derived)
    changed = {(s, k) for s in before for k in before[s]
               if after[s].get(k) != before[s][k]}
    assert changed == {("sweep", "tau_ns_list"), ("campaign", "trials")}
    assert after.keys() == before.keys()
    assert all(after[s].keys() == before[s].keys() for s in before)
    assert after["sweep"]["tau_ns_list"] == "1000.0, 1004.44, 1008.88, 1013.32, 1017.76"
    assert after["campaign"]["trials"] == str(60_000_000 // 23 * 5)
    # comments and layout survive: only the two value lines differ
    diff = [(a, b) for a, b in zip(shipped.splitlines(), derived.splitlines()) if a != b]
    assert len(diff) == 2 and len(shipped.splitlines()) == len(derived.splitlines())


def _tree():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9] > b1 [5, 6], b2 [6.5, 8]
    return [["cli.main", 0.0, 10.0, -1],
            ["protocol.build_trial_model", 1.0, 4.0, 0],
            ["fock.channel", 2.0, 3.0, 1],
            ["stats.witness_distribution", 5.0, 9.0, 0],
            ["noise", 5.0, 6.0, 3],
            ["noise", 6.5, 8.0, 3]]


def test_self_times_of_nested_spans():
    assert tracer.self_times(_tree()) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5])


def test_self_times_count_overlapping_children_once():
    spans = [["p", 0.0, 10.0, -1], ["c", 2.0, 6.0, 0], ["c", 4.0, 8.0, 0],
             ["c", 9.0, 12.0, 0]]     # the last one runs past its parent's end
    assert tracer.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_total_times_count_nested_same_layer_spans_once():
    totals = tracer.total_times(_tree() + [["noise", 5.2, 5.8, 4]])
    assert totals["noise"] == pytest.approx(2.5)
    assert totals["protocol.build_trial_model"] == pytest.approx(3.0)
    assert totals["cli.main"] == pytest.approx(10.0)


def test_layer_metrics_add_up_to_traced_wall():
    trace = {"spans": _tree(),
             "counts": {"campaign.trials": 4.0, "campaign.clicked_trials": 1.0}}
    values = tracer.layer_metrics(trace, untraced_wall_s=11.0, traced_wall_s=11.5,
                                  src_lines=100)
    assert values.keys() == tracer.PER_LAYER.keys()
    layer_s = sum(v for k, v in values.items() if k.endswith(".s"))
    assert layer_s == pytest.approx(values["trace.wall_s"]) == pytest.approx(10.0)
    assert values["cli.residual.s"] == pytest.approx(3.0)
    assert values["noise.calls"] == 2 and values["noise.s"] == pytest.approx(2.5)
    assert values["trace.overhead_s"] == pytest.approx(0.5)
    assert values["campaign.click_yield"] == pytest.approx(0.25)


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_tables_match_benchmark_json():
    doc = _benchmark()
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == tracer.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names(trace, monkeypatch, capsys):
    """Every metric the benchmark prints is declared and well formed."""
    units = tracer.PER_LAYER if trace else run.END_TO_END
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "measure",
                        lambda bench, seconds, traced: {n: 1.0 for n in units})
    assert run.main(["--workload", "plan-fiber", "--seed", "1", "--seconds", "1",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in _benchmark()[section]}
    printed = {n: m["unit"] for n, m in result["metrics"].items()}
    assert printed == declared
    assert all(NAME.fullmatch(n) for n in printed)


def test_main_refuses_a_directory_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "witness-stats", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_every_alias_of_a_traced_function_is_wrapped_or_listed():
    sys.path.insert(0, str(ROOT / "src"))
    modules = {name: importlib.import_module(f"mechlink.{name}")
               for name in ("cli", "campaign", "config", "devices", "fock",
                            "noise", "planner", "protocol", "stats")}
    originals = set()
    for sites in tracer.LAYERS.values():
        for site in sites:
            owner, attr = tracer._resolve(site)
            originals.add(getattr(owner, attr))
    wrapped = {s for sites in tracer.LAYERS.values() for s in sites}
    for mod_name, mod in modules.items():
        for attr, value in vars(mod).items():
            site = f"{mod_name}.{attr}"
            if any(value is fn for fn in originals):
                assert site in wrapped or site in tracer.UNWRAPPED_ALIASES, site


def test_output_checks_reject_broken_output(tmp_path):
    (tmp_path / "fringe_fit.json").write_text(json.dumps(
        {"period_pi": 2.001, "period_pi_exact": 2.0, "period_error_pi": 0.004,
         "visibility_exact": 0.75}))
    assert workloads.check_phase_sweep(tmp_path, None, 1) == []
    (tmp_path / "fringe_fit.json").write_text(json.dumps(
        {"period_pi": 2.3, "period_pi_exact": 2.0, "period_error_pi": 0.004,
         "visibility_exact": 0.75}))
    assert len(workloads.check_phase_sweep(tmp_path, None, 1)) == 2

    fiber = {"max_separation": {"total_km": 97.5},
             "separations": {"75": {"integration_days": 43.4}}}
    (tmp_path / "fiber.json").write_text(json.dumps(fiber))
    assert workloads.check_plan_fiber(tmp_path, None, 1) == []
    fiber["separations"]["75"]["integration_days"] = math.inf
    (tmp_path / "fiber.json").write_text(json.dumps(fiber))
    assert workloads.check_plan_fiber(tmp_path, None, 1) != []
