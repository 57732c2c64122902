"""Layer spans for the traced benchmark run.

The tracer wraps public functions of the mechlink modules from outside
the package and records one span per call (name, start, end, parent)
plus work counts, all in memory.  Nothing under src/ is changed: each
wrapper is installed on the module attribute where the caller looks the
name up, including names bound with ``from ... import``.

Run as a script, it executes one CLI invocation in-process under the
wrappers and writes the spans and counts as JSON:

    python3 perfbench/tracer.py SPANS_JSON -- witness --config ... --out ...

`layer_metrics` turns that JSON into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

ROOT = "cli.main"

FOCK_CHANNELS = ("two_mode_squeeze", "beamsplitter", "loss_channel",
                 "thermal_noise_channel", "phase_rotation", "phase_noise_twirl",
                 "click_measurement", "extend_with_vacuum")

# layer -> binding sites "module.attr" (or "module.Class.attr"), each the
# place some caller looks the function up
LAYERS = {
    "config.parse_config": ("config.parse_config", "cli.parse_config"),
    "protocol.build_trial_model": ("protocol.build_trial_model",
                                   "campaign.build_trial_model"),
    "protocol.pump_stage": ("protocol.pump_stage",),
    "protocol.evolve_delay": ("protocol.evolve_delay",),
    "protocol.readout_stage": ("protocol.readout_stage",),
    "protocol.exact_visibility_ceiling": ("protocol.exact_visibility_ceiling",),
    "fock.channel": tuple(f"fock.{name}" for name in FOCK_CHANNELS),
    "campaign.run_campaign": ("campaign.run_campaign", "cli.run_campaign"),
    "campaign.clicklog_save": ("campaign.ClickLog.save",),
    "stats.tally": ("stats.tally",),
    "stats.witness_distribution": ("stats.witness_distribution",),
    "stats.fit_fringe": ("stats.fit_fringe",),
    "noise": ("noise.g2_cross", "planner.g2_cross", "noise.visibility_bound",
              "noise.occupation", "noise.driven_occupation",
              "protocol.driven_occupation"),
    "planner.integration_time": ("planner.integration_time",),
    "planner.required_added_db": ("planner.required_added_db",),
    # campaign.atomic_write is left alone: click-log writes belong to
    # campaign.clicklog_save, not to the CLI's own artifacts
    "cli.artifacts": ("cli.write_json", "cli.write_csv", "cli.atomic_write"),
}

# module-level aliases of wrapped functions that are deliberately not wrapped
UNWRAPPED_ALIASES = frozenset({"campaign.atomic_write"})

# per-layer metrics: name -> unit; spans give .s (self time), .total_s
# (time inside the layer, children included) and .calls
PER_LAYER = {
    "config.parse_config.s": "s",
    "protocol.build_trial_model.s": "s",
    "protocol.build_trial_model.total_s": "s",
    "protocol.build_trial_model.calls": "count",
    "protocol.pump_stage.s": "s",
    "protocol.pump_stage.total_s": "s",
    "protocol.pump_stage.calls": "count",
    "protocol.evolve_delay.s": "s",
    "protocol.evolve_delay.total_s": "s",
    "protocol.evolve_delay.calls": "count",
    "protocol.readout_stage.s": "s",
    "protocol.readout_stage.total_s": "s",
    "protocol.readout_stage.calls": "count",
    "protocol.exact_visibility_ceiling.s": "s",
    "protocol.exact_visibility_ceiling.total_s": "s",
    "protocol.exact_visibility_ceiling.calls": "count",
    "protocol.truncation_budget": "prob",
    "fock.channel.s": "s",
    "fock.channel.calls": "count",
    "fock.max_dim": "count",
    "fock.bytes_computed": "B",
    "campaign.run_campaign.s": "s",
    "campaign.trials": "count",
    "campaign.ns_per_trial": "ns",
    "campaign.clicks": "count",
    "campaign.click_yield": "frac",
    "campaign.clicklog_save.s": "s",
    "campaign.clicklog_rows": "count",
    "campaign.clicklog_bytes": "B",
    "stats.tally.s": "s",
    "stats.witness_distribution.s": "s",
    "stats.witness_distribution.calls": "count",
    "stats.fit_fringe.s": "s",
    "stats.fit_fringe.calls": "count",
    "noise.s": "s",
    "noise.calls": "count",
    "planner.integration_time.s": "s",
    "planner.integration_time.calls": "count",
    "planner.required_added_db.s": "s",
    "cli.artifacts.s": "s",
    "cli.artifacts.bytes": "B",
    "cli.residual.s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "src.lines": "count",
}


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent index]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []

    def wrap(self, name, fn, hook=None):
        """`fn` recording a `name` span per call; `hook` then updates counts."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, self.clock(), None, parent])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = self.clock()
            if hook is not None:
                hook(self.counts, args, result)
            return result
        return traced

    def to_json(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(idx)
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted((spans[c][1], spans[c][2])
                                     for c in children[idx]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def total_times(spans) -> dict:
    """Layer -> summed duration of its spans not nested in a same-layer span."""
    out = defaultdict(float)
    for name, start, end, parent in spans:
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            out[name] += end - start
    return out


def layer_metrics(trace: dict, untraced_wall_s: float, traced_wall_s: float,
                  src_lines: int) -> dict:
    """Per-layer metric values from a traced run's spans and counts."""
    spans, counts = trace["spans"], trace["counts"]
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for span, own in zip(spans, self_times(spans)):
        self_s[span[0]] += own
        calls[span[0]] += 1
    roots = [s for s in spans if s[0] == ROOT]
    if len(roots) != 1:
        raise ValueError(f"expected one {ROOT} span, found {len(roots)}")
    total_s = total_times(spans)
    values = {}
    for name in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if layer in LAYERS and kind in ("s", "total_s", "calls"):
            values[name] = {"s": self_s, "total_s": total_s, "calls": calls}[kind][layer]
    trials = counts.get("campaign.trials", 0)
    run_s = total_s["campaign.run_campaign"]
    values.update({
        "protocol.truncation_budget": counts.get("protocol.truncation_budget", 0.0),
        "fock.max_dim": counts.get("fock.max_dim", 0),
        "fock.bytes_computed": counts.get("fock.bytes_computed", 0),
        "campaign.trials": trials,
        "campaign.ns_per_trial": 1e9 * run_s / trials if trials else 0.0,
        "campaign.clicks": counts.get("campaign.clicks", 0),
        "campaign.click_yield": (counts.get("campaign.clicked_trials", 0) / trials
                                 if trials else 0.0),
        "campaign.clicklog_rows": counts.get("campaign.clicklog_rows", 0),
        "campaign.clicklog_bytes": counts.get("campaign.clicklog_bytes", 0),
        "cli.artifacts.bytes": counts.get("cli.artifacts.bytes", 0),
        "cli.residual.s": self_s[ROOT],
        "trace.wall_s": roots[0][2] - roots[0][1],
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
        "src.lines": src_lines,
    })
    return values


# ---------------------------------------------------------------------------
# count hooks, run after the wrapped call returns


def _fock_hook(counts, args, result):
    dim = max(args[0].dim, getattr(result, "dim", 0))
    counts["fock.max_dim"] = max(counts["fock.max_dim"], dim)
    counts["fock.bytes_computed"] += 16 * dim * dim   # one complex128 matrix


def _model_hook(counts, args, result):
    counts["protocol.truncation_budget"] = max(
        counts["protocol.truncation_budget"], float(result.truncation_budget))


def _campaign_hook(counts, args, result):
    trial = result.trial                      # sorted trial index per click
    counts["campaign.trials"] += result.n_trials
    counts["campaign.clicks"] += len(trial)
    if len(trial):
        counts["campaign.clicked_trials"] += 1 + int((trial[1:] != trial[:-1]).sum())


def _clicklog_hook(counts, args, result):
    log, csv_path, meta_path = args[:3]
    counts["campaign.clicklog_rows"] += len(log)
    counts["campaign.clicklog_bytes"] += (os.path.getsize(csv_path)
                                          + os.path.getsize(meta_path))


def _artifact_hook(counts, args, result):
    if len(args) == 2 and isinstance(args[1], str):   # atomic_write(path, text)
        counts["cli.artifacts.bytes"] += len(args[1].encode())


HOOKS = {
    "fock.channel": _fock_hook,
    "protocol.build_trial_model": _model_hook,
    "campaign.run_campaign": _campaign_hook,
    "campaign.clicklog_save": _clicklog_hook,
    "cli.artifacts": _artifact_hook,
}


def _resolve(site: str):
    """(owner object, attribute name) of a "module.attr" binding site."""
    module, *path = site.split(".")
    owner = importlib.import_module(f"mechlink.{module}")
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1]


def install(tracer: Tracer) -> None:
    """Wrap every binding site in LAYERS with `tracer`."""
    for layer, sites in LAYERS.items():
        for site in sites:
            owner, attr = _resolve(site)
            setattr(owner, attr, tracer.wrap(layer, getattr(owner, attr),
                                             HOOKS.get(layer)))


def main(argv) -> int:
    spans_path, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON -- <mechlink arguments>")
    from mechlink import cli

    tracer = Tracer()
    install(tracer)
    code = tracer.wrap(ROOT, cli.main)(cli_argv)
    with open(spans_path, "w") as fh:
        json.dump(tracer.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
