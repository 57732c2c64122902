"""The benchmark's workloads: CLI arguments, derived inputs and output checks.

Each workload is one `mechlink` subcommand on a shipped config.  The
output checks compare a run's artifacts with the program's own exact
values and with physics invariants, within tolerances, never with
frozen digests: a backend change that shifts the tables slightly still
passes, broken output does not.
"""

from __future__ import annotations

import configparser
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

TIME_SWEEP_CFG = "configs/time_sweep.cfg"
# the 1 us window of time_sweep.cfg; five points is the fewest the
# fringe fit accepts
WINDOW_NS = (1000.0, 1100.0)
WINDOW_POINTS = 5


def derive_time_sweep_1us(text: str) -> str:
    """time_sweep.cfg cut to the first five points of its 1 us window.

    Only `tau_ns_list` and `trials` change; `trials` keeps the shipped
    per-point count, so each kept point samples what it does in the full
    sweep.  Every other line, comments included, is kept verbatim.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    taus = [t.strip() for t in parser["sweep"]["tau_ns_list"].split(",")]
    kept = [t for t in taus if WINDOW_NS[0] <= float(t) < WINDOW_NS[1]]
    kept = kept[:WINDOW_POINTS]
    if len(kept) != WINDOW_POINTS:
        raise ValueError(f"{TIME_SWEEP_CFG}: 1 us window has {len(kept)} points")
    per_point = int(parser["campaign"]["trials"]) // len(taus)
    new = {"tau_ns_list": ", ".join(kept), "trials": str(per_point * len(kept))}
    lines = []
    for line in text.splitlines(keepends=True):
        key = line.split("=", 1)[0].strip()
        if "=" in line and key in new:
            line = f"{key} = {new.pop(key)}\n"
        lines.append(line)
    if new:
        raise ValueError(f"{TIME_SWEEP_CFG}: keys not found: {sorted(new)}")
    return "".join(lines)


def _load(out_dir, name):
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def _within(value, target, sigma, k) -> bool:
    return math.isfinite(value) and abs(value - target) <= k * sigma


def check_witness(out_dir, cfg_path, seed) -> list:
    doc = _load(out_dir, "witness.json")
    problems = []
    if doc["tally"]["N"] != doc["trials"]:
        problems.append(f"tally N {doc['tally']['N']} != trials {doc['trials']}")
    if doc["seed"] != seed:
        problems.append(f"seed {doc['seed']} != {seed}")
    sym = doc["witness_symmetrized"]["ml"]
    if not sym < 1.0:
        problems.append(f"symmetrized witness {sym} not below 1")
    for det in (1, 2):
        w = doc["witness"][str(det)]
        bound = doc["exact"][f"bound_from_exact_g2_det{det}"]
        if not _within(w["ml"], bound, w["upper"] - w["lower"], 3):
            problems.append(f"det{det} witness {w['ml']} not within 3 intervals "
                            f"of the exact-g2 bound {bound}")
    return problems


def check_phase_sweep(out_dir, cfg_path, seed) -> list:
    fit = _load(out_dir, "fringe_fit.json")
    err = fit["period_error_pi"]
    problems = []
    for target in (fit["period_pi_exact"], 2.0):
        if not _within(fit["period_pi"], target, err, 4):
            problems.append(f"period {fit['period_pi']} pi not within 4 x {err} "
                            f"of {target}")
    if not 0.0 < fit["visibility_exact"] <= 1.0:
        problems.append(f"exact visibility {fit['visibility_exact']} outside (0, 1]")
    return problems


def check_time_sweep(out_dir, cfg_path, seed) -> list:
    fit = _load(out_dir, "sweep_fit.json")
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(cfg_path)
    period_ns = 1e3 / float(parser["interferometer"]["mech_freq_diff_mhz"])
    problems = []
    if fit["points"] != WINDOW_POINTS:
        problems.append(f"{fit['points']} sweep points, expected {WINDOW_POINTS}")
    if not _within(fit["period_ns"], period_ns, fit["period_error_ns"], 4):
        problems.append(f"period {fit['period_ns']} ns not within "
                        f"4 x {fit['period_error_ns']} of {period_ns}")
    for row in fit["visibility"]:
        if not 0.0 <= row["exact"] <= row["bound_exact"] + 1e-9:
            problems.append(f"exact visibility {row['exact']} above its "
                            f"ceiling {row['bound_exact']} at {row['tau_ns']} ns")
    return problems


def check_plan_fiber(out_dir, cfg_path, seed) -> list:
    doc = _load(out_dir, "fiber.json")
    problems = []
    if not doc["max_separation"]["total_km"] > 0:
        problems.append(f"max separation {doc['max_separation']['total_km']} km")
    if not doc["separations"]:
        problems.append("no separations planned")
    for km, entry in doc["separations"].items():
        days = entry["integration_days"]
        if not (math.isfinite(days) and days > 0):
            problems.append(f"{km} km: integration days {days}")
    return problems


@dataclass(frozen=True)
class Workload:
    subcommand: str
    config: str                 # shipped config, relative to the checkout
    check: Callable             # (out_dir, cfg_path, seed) -> problems
    derive: Callable | None = None

    def config_path(self, root, work_dir) -> str:
        """Config the CLI reads; derived ones are written under `work_dir`."""
        src = os.path.join(root, self.config)
        if self.derive is None:
            return src
        with open(src) as fh:
            text = self.derive(fh.read())
        path = os.path.join(work_dir, "derived-" + os.path.basename(self.config))
        tmp = path + f".{os.getpid()}.tmp"
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
        return path


WORKLOADS = {
    "witness-stats": Workload("witness", "configs/entangle_stats.cfg",
                              check_witness),
    "phase-sweep-stats": Workload("phase-sweep", "configs/entangle_stats.cfg",
                                  check_phase_sweep),
    "time-sweep-1us": Workload("time-sweep", TIME_SWEEP_CFG, check_time_sweep,
                               derive_time_sweep_1us),
    "plan-fiber": Workload("plan-fiber", "configs/plan_fiber.cfg",
                           check_plan_fiber),
}
