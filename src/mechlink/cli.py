"""Batch command-line tool: campaigns, analysis and planning runs.

    mechlink <subcommand> --config <path> [--out <dir>] [--seed N] [--trials N]

Exit codes: 0 success, 2 config error, 3 runtime error.  Every run
writes a manifest (config hash, seed, versions) next to its artifacts;
identical (config, seed) runs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__, noise, planner, protocol, stats
from .campaign import ClickLog, atomic_write, chunk_draws, code_counts, run_campaign
from .config import ConfigError, RunConfig, parse_config

PI = math.pi
US = 1e-6
NS = 1e-9


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def write_json(path, doc) -> None:
    atomic_write(path, json.dumps(doc, indent=2, sort_keys=True, allow_nan=False,
                                  default=_json_default) + "\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    atomic_write(path, "\n".join(lines) + "\n")


def _manifest(out_dir, subcommand, config_path, cfg: RunConfig,
              seed=None, trials=None) -> None:
    with open(config_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    doc = {
        "subcommand": subcommand,
        "config_sha256": digest,
        "config": cfg.snapshot(),
        "seed": seed,
        "trials": trials,
        "versions": {"mechlink": __version__, "numpy": np.__version__},
    }
    write_json(os.path.join(out_dir, "manifest.json"), doc)


# ---------------------------------------------------------------------------
# shared analysis helpers


def _analysis_params(cfg: RunConfig) -> dict:
    a = cfg.analysis
    return {
        "witness_step": a.get("witness_grid_step", stats.WITNESS_GRID_STEP),
        "threshold": a.get("classicality_threshold", 1.0),
    }


def _witness_report(tally: stats.CoincidenceTally, params: dict,
                    extras: dict | None = None) -> dict:
    dists = {}
    for det in (1, 2):
        dists[det] = stats.witness_distribution(
            tally, det, witness_step=params["witness_step"])
    sym = stats.symmetrize(dists[1], dists[2])
    threshold = params["threshold"]
    pairs = [(i, j) for i in (1, 2) for j in (1, 2)]
    g2 = {f"r{i}p{j}": {"value": est.value, "lower": est.lower,
                        "upper": est.upper, "coincidences": est.coincidences}
          for (i, j), est in zip(pairs, stats.g2_estimates(
              [(tally, i, j) for i, j in pairs]))}
    doc = {
        "tally": tally.to_json_dict(),
        "g2": g2,
        "witness": {
            str(det): {
                "ml": dists[det].ml_value,
                "lower": dists[det].lower, "upper": dists[det].upper,
                "below": dists[det].below, "above": dists[det].above,
                "distribution": {"grid": dists[det].grid,
                                 "mass": dists[det].mass},
            } for det in (1, 2)
        },
        "witness_symmetrized": {
            "ml": sym.ml_value, "lower": sym.lower, "upper": sym.upper,
            "confidence_below_threshold": stats.confidence_below(sym, threshold),
            "threshold": threshold,
            "below": sym.below, "above": sym.above,
            "distribution": {"grid": sym.grid, "mass": sym.mass},
        },
    }
    if extras:
        doc.update(extras)
    return doc


_FRINGE_HEADER = ["x", "g2_same", "g2_same_err_lo", "g2_same_err_hi",
                  "g2_cross", "g2_cross_err_lo", "g2_cross_err_hi",
                  "g2_same_exact", "g2_cross_exact"]


def _run_sweep(cfg: RunConfig, out_dir, subcommand, list_key, values,
               at_value, x_unit):
    """Simulate one campaign per sweep value and write fringe.csv.

    `at_value(protocol, v)` sets the swept parameter; the trials are split
    evenly over the points.  Returns (trials per point, points), each
    point (model, same-detector estimate, cross-detector estimate,
    exact same, exact cross).
    """
    problems = cfg.require_simulation()
    if not values:
        problems.append(f"[sweep] {list_key} is required for {subcommand}")
    if problems:
        raise ConfigError(problems)
    per_point = max(1, cfg.trials // len(values))
    models, tallies = [], []
    for i, v in enumerate(values):
        proto = at_value(cfg.protocol, v)
        models.append(protocol.build_trial_model(proto))
        # a point needs only its counts: no click log is sampled
        tallies.append(stats.tally_from_counts(
            code_counts(models[-1], per_point, cfg.seed, stream=i), per_point))
    # every point's same- and cross-detector intervals in one solve
    estimates = stats.g2_estimates([(t, (1, 2), (1, 2)) for t in tallies]
                                   + [(t, (1, 2), (2, 1)) for t in tallies])
    points, rows = [], []
    for v, model, same, cross in zip(values, models, estimates[:len(values)],
                                     estimates[len(values):]):
        exact_same = 0.5 * (model.g2_exact(1, 1) + model.g2_exact(2, 2))
        exact_cross = 0.5 * (model.g2_exact(1, 2) + model.g2_exact(2, 1))
        points.append((model, same, cross, exact_same, exact_cross))
        rows.append([v / x_unit, same.value, same.lower, same.upper,
                     cross.value, cross.lower, cross.upper, exact_same, exact_cross])
    write_csv(os.path.join(out_dir, "fringe.csv"), _FRINGE_HEADER, rows)
    return per_point, points


def _period(fit: stats.FringeFit, unit: float) -> tuple:
    """A fit's period and its error in `unit`; (None, None) when the fit is
    flagged, whose period is unresolved."""
    if fit.flagged:
        return None, None
    return fit.period / unit, fit.period_error / unit


# ---------------------------------------------------------------------------
# subcommands


def cmd_phase_sweep(cfg: RunConfig, out_dir, config_path) -> None:
    phases = cfg.delta_phi_sweep
    per_point, points = _run_sweep(cfg, out_dir, "phase-sweep", "delta_phi_pi_list",
                                   phases, lambda p, phi: p.with_delta_phi(phi), PI)

    # the cross/same difference doubles the fringe amplitude and cancels
    # the common offset, which conditions the period fit best
    cross_vals = np.array([p[2].value for p in points])
    same_vals = np.array([p[1].value for p in points])
    cross_sigma = np.array([0.5 * (p[2].upper - p[2].lower) for p in points])
    same_sigma = np.array([0.5 * (p[1].upper - p[1].lower) for p in points])
    fit = stats.fit_fringe(np.array(phases), cross_vals - same_vals,
                           np.hypot(cross_sigma, same_sigma))
    exact_cross = np.array([p[4] for p in points])
    exact_same = np.array([p[3] for p in points])
    fit_exact = stats.fit_fringe(np.array(phases), exact_cross - exact_same)
    all_sampled = np.concatenate([cross_vals, same_vals])
    all_exact = np.concatenate([exact_cross, exact_same])
    period, error = _period(fit, PI)
    summary = {
        "points": len(phases),
        "trials_per_point": per_point,
        "period_pi": period,
        "period_pi_exact": _period(fit_exact, PI)[0],
        "period_error_pi": error,
        "flagged": fit.flagged or fit_exact.flagged,
        "visibility_sampled": stats.visibility(all_sampled),
        "visibility_exact": stats.visibility(all_exact),
        "herald_probability_exact": points[0][0].herald_prob(),
    }
    write_json(os.path.join(out_dir, "fringe_fit.json"), summary)
    _manifest(out_dir, "phase-sweep", config_path, cfg, cfg.seed, cfg.trials)


def cmd_time_sweep(cfg: RunConfig, out_dir, config_path) -> None:
    taus = cfg.tau_sweep
    per_point, points = _run_sweep(cfg, out_dir, "time-sweep", "tau_ns_list",
                                   taus, lambda p, tau: p.with_tau(tau), NS)

    windows = _split_windows(taus)
    vis_rows = []
    for idx in windows:
        center = float(np.mean([taus[k] for k in idx]))
        v_s, used_s = _window_visibility(
            [taus[k] for k in idx],
            [points[k][2].value for k in idx],
            [points[k][1].value for k in idx])
        v_e, used_e = _window_visibility(
            [taus[k] for k in idx],
            [points[k][4] for k in idx],
            [points[k][3] for k in idx])
        proto = cfg.protocol.with_tau(center)
        v_bound_exact = protocol.exact_visibility_ceiling(proto)
        v_bound_formula = _formula_bound(cfg, center)
        vis_rows.append([center / NS, v_s, v_e, v_bound_exact, v_bound_formula,
                         used_s, used_e])
    write_csv(os.path.join(out_dir, "visibility.csv"),
              ["tau_ns", "v_sampled", "v_exact", "v_bound_exact",
               "v_bound_formula"], [row[:5] for row in vis_rows])

    first = windows[0]
    fit = stats.fit_fringe(
        np.array([taus[k] for k in first]),
        np.array([points[k][2].value - points[k][1].value for k in first]),
        np.array([math.hypot(points[k][2].upper - points[k][2].lower,
                             points[k][1].upper - points[k][1].lower) * 0.5
                  for k in first]))
    period, error = _period(fit, NS)
    summary = {
        "points": len(taus),
        "trials_per_point": per_point,
        "period_ns": period,
        "period_error_ns": error,
        "flagged": fit.flagged,
        "windows": [[taus[k] / NS for k in idx] for idx in windows],
        "visibility": [
            {"tau_ns": row[0], "sampled": row[1], "exact": row[2],
             "bound_exact": row[3], "bound_formula": row[4],
             "sampled_estimator": row[5], "exact_estimator": row[6]}
            for row in vis_rows],
    }
    write_json(os.path.join(out_dir, "sweep_fit.json"), summary)
    _manifest(out_dir, "time-sweep", config_path, cfg, cfg.seed, cfg.trials)


def _split_windows(taus, max_gap=6e-9):
    windows, current = [], [0]
    for k in range(1, len(taus)):
        if taus[k] - taus[k - 1] <= max_gap:
            current.append(k)
        else:
            windows.append(current)
            current = [k]
    windows.append(current)
    return windows


def _window_visibility(taus, cross_vals, same_vals) -> tuple:
    """Fringe contrast within one delay window, and the estimator each
    series used.

    Cross- and same-detector correlations oscillate half a fringe apart;
    a sinusoid fit per series recovers the amplitude wherever the window
    samples the fringe, and the two estimates are averaged.  A series of
    fewer than five points, or whose fit is flagged, takes
    `stats.visibility` instead.
    """
    taus = np.asarray(taus, dtype=float)
    out, used = [], {}
    for series, vals in (("cross", np.asarray(cross_vals)),
                         ("same", np.asarray(same_vals))):
        fit = stats.fit_fringe(taus, vals) if len(vals) >= 5 else None
        if fit is None or fit.flagged:
            used[series] = "visibility"
            out.append(stats.visibility(vals))
            continue
        used[series] = "fit_fringe"
        top = fit.offset + abs(fit.amplitude)
        bot = max(fit.offset - abs(fit.amplitude), 0.0)
        out.append((top - bot) / (top + bot))
    return float(np.mean(out)), used


def _formula_bound(cfg: RunConfig, tau: float) -> float:
    """Low-temperature closed-form visibility ceiling for the config.

    Per-phonon background rates are referred to each device's detector-2
    read-window detection scale, the convention of single-device runs.  A
    background outside the formula's range fails (`noise.NoiseBudget`).
    """
    proto = cfg.protocol
    budgets = []
    for i, dev in enumerate(proto.devices()):
        heat = noise.HeatingParams(decay=dev.gamma_decay,
                                   bath_gamma=dev.bath_gamma,
                                   bath_k=dev.bath_k, n_init=dev.n_init)
        n0 = dev.start_occupation

        def n_th(t, heat=heat, n0=n0):
            return noise.occupation(t, heat, n0)

        scale = protocol.read_detection_scale(proto, i, 1)
        n_bg = proto.detectors.p_dark_read[1] / scale if scale > 0 else 0.0
        budgets.append(noise.NoiseBudget(
            n_th=n_th, p_pump=dev.p_pump, n_leak=dev.n_leak,
            n_bg=n_bg, decay=dev.gamma_decay))
    return noise.visibility_bound(tau, *budgets)


def _bound(model: protocol.TrialModel, det: int) -> float | None:
    """`witness_from_g2` of the model's exact g2 for heralds at `det`, or
    None where it is undefined (no singles, or no fringe contrast)."""
    try:
        return stats.witness_from_g2(model.g2_exact(1, det), model.g2_exact(2, det))
    except (stats.StatsError, protocol.ProtocolError):
        return None


def _separable_bounds(proto, threshold: float) -> dict:
    """The smallest `_bound` per herald detector over the config's
    separable twins, and whether either lies below `threshold`.

    The twins are each arm alone and the dephased twin: a uniform twirl of
    mech B's phase leaves the state block-diagonal in B's number basis, so
    each twin is exactly separable.
    """
    dephased = dataclasses.replace(proto, interferometer=dataclasses.replace(
        proto.interferometer, phase_jitter_sigma=math.inf))
    twins = [protocol.build_trial_model(c) for c in (
        protocol._blocked(proto, "B"), protocol._blocked(proto, "A"), dephased)]
    doc, below = {}, False
    for det in (1, 2):
        bounds = [b for b in (_bound(twin, det) for twin in twins) if b is not None]
        doc[f"separable_bound_det{det}"] = min(bounds, default=None)
        below = below or min(bounds, default=math.inf) < threshold
    doc["separable_below_threshold"] = below
    return doc


def cmd_witness(cfg: RunConfig, out_dir, config_path) -> None:
    problems = cfg.require_simulation()
    if problems:
        raise ConfigError(problems)
    model = protocol.build_trial_model(cfg.protocol)
    chunks = list(chunk_draws(model, cfg.trials, cfg.seed))
    counts = sum((counts for _, counts in chunks), np.zeros(16, np.int64))
    tally = stats.tally_from_counts(counts, cfg.trials)
    save = cfg.save_clicklog
    if save is None:
        save = counts @ protocol.CODE_SLOTS.sum(axis=1) <= 5_000_000
    if save:
        # the log refines the same counts; it is dropped once written
        run_campaign(cfg.protocol, cfg.trials, cfg.seed, model=model,
                     config_snapshot=cfg.snapshot(), chunks=chunks).save(
            os.path.join(out_dir, "clicklog.csv"),
            os.path.join(out_dir, "clicklog_meta.json"))
    params = _analysis_params(cfg)

    exact = {}
    for det in (1, 2):
        try:
            exact[f"moment_ratio_det{det}"] = model.exact_witness(det)
        except protocol.ProtocolError:
            exact[f"moment_ratio_det{det}"] = None
        exact[f"bound_from_exact_g2_det{det}"] = _bound(model, det)
    exact.update(_separable_bounds(cfg.protocol, params["threshold"]))
    extras = {
        "exact": exact,
        "herald_probability_exact": model.herald_prob(),
        "trials": cfg.trials,
        "seed": cfg.seed,
    }
    doc = _witness_report(tally, params, extras)
    write_json(os.path.join(out_dir, "witness.json"), doc)
    atomic_write(os.path.join(out_dir, "tally.json"), tally.dumps())
    _manifest(out_dir, "witness", config_path, cfg, cfg.seed, cfg.trials)


def cmd_pump_probe(cfg: RunConfig, out_dir, config_path) -> None:
    pp = cfg.pump_probe
    if "data_csv" in pp:
        t, d, sigma = noise.read_pump_probe_csv(pp["data_csv"])
    else:
        required = ("gamma_per_us", "bath_gamma_per_us")
        missing = [k for k in required if k not in pp]
        if missing:
            raise ConfigError([f"[pump_probe] missing {k}" for k in missing])
        if "seed" not in pp:
            raise ConfigError(["[pump_probe] seed is required for synthesis"])
        decay = pp["gamma_per_us"] / US
        bath_gamma = pp["bath_gamma_per_us"] / US
        t_max = pp.get("t_max_us", 20.0) * US
        n = int(pp.get("samples", 80))
        t = np.concatenate([np.linspace(0.03 * US, min(2 * US, t_max / 3), n // 2),
                            np.linspace(min(2 * US, t_max / 3) * 1.15, t_max,
                                        n - n // 2)])
        clean = noise.pump_probe_model(t, pp.get("amplitude_fast", 0.9),
                                       pp.get("amplitude_rise", 0.7),
                                       decay, bath_gamma, pp.get("offset", 0.08))
        frac = pp.get("noise_fraction", 0.02)
        sigma = np.maximum(frac * clean, 1e-4)
        rng = np.random.default_rng(pp["seed"])
        d = clean + rng.normal(0.0, sigma) if frac > 0 else clean
    fit = noise.fit_pump_probe(t, d, sigma)
    doc = {
        "lifetime_us": 1.0 / fit.params.decay / US,
        "bath_lifetime_us": 1.0 / fit.params.bath_gamma / US,
        "bath_k_per_us": fit.params.bath_k * US,
        "amplitude_fast": fit.amplitude_fast,
        "amplitude_rise": fit.amplitude_rise,
        "offset": fit.params.n_final,
        "chi2": fit.chi2,
        "n_points": len(t),
    }
    write_json(os.path.join(out_dir, "pump_probe_fit.json"), doc)
    model_curve = noise.pump_probe_model(t, fit.amplitude_fast, fit.amplitude_rise,
                                         fit.params.decay, fit.params.bath_gamma,
                                         fit.params.n_final)
    write_csv(os.path.join(out_dir, "pump_probe_curve.csv"),
              ["t_ns", "signal", "sigma", "fit"],
              [[tt / NS, dd, ss, mm] for tt, dd, ss, mm in
               zip(t, d, sigma, model_curve)])
    _manifest(out_dir, "pump-probe", config_path, cfg)


def cmd_plan_yield(cfg: RunConfig, out_dir, config_path) -> None:
    py = cfg.plan_yield
    if not py:
        raise ConfigError(["[plan.yield] section is required"])
    chips = py.get("chips", 2)
    sigma = py.get("sigma_nm_list", (2.0,))
    offsets = py.get("offsets_nm_list", (0.0,))
    if len(sigma) == 1:
        sigma = sigma * chips
    if len(offsets) == 1:
        offsets = offsets * chips
    model = planner.YieldModel(
        chips=chips, devices_per_chip=py.get("devices_per_chip", 234),
        sigma_nm=tuple(sigma), offsets_nm=tuple(offsets),
        window_mhz=py.get("window_mhz", 100.0),
        carrier_nm=py.get("carrier_nm", 1550.0))
    reps = py.get("mc_reps", 20000)
    seed = py.get("seed", 1)
    est = planner.multi_chip_yield(model, mc_reps=reps, seed=seed)
    doc = {
        "chips": chips,
        "devices_per_chip": model.devices_per_chip,
        "window_nm": model.window_nm,
        "analytic": est.analytic,
        "monte_carlo": est.monte_carlo,
        "monte_carlo_se": est.monte_carlo_se,
        "tuple_match_probability": est.pair_probability,
        "mc_reps": reps,
    }
    write_json(os.path.join(out_dir, "yield.json"), doc)
    lines = [
        f"chips: {chips} x {model.devices_per_chip} devices",
        f"match window: {model.window_mhz} MHz = {model.window_nm * 1e3:.3f} pm",
        f"analytic yield:    {est.analytic:.6f}",
        f"monte carlo yield: {est.monte_carlo:.6f} +- {est.monte_carlo_se:.6f}",
    ]
    atomic_write(os.path.join(out_dir, "yield.txt"), "\n".join(lines) + "\n")
    _manifest(out_dir, "plan-yield", config_path, cfg)


def _link_from_config(pf: dict) -> planner.LinkBudget:
    def budget(prefix):
        return noise.NoiseBudget(
            n_th=pf[f"{prefix}_n_th"], p_pump=pf[f"{prefix}_p_pump"],
            n_leak=pf[f"{prefix}_n_leak"], n_bg=pf[f"{prefix}_n_bg"],
            decay=pf[f"{prefix}_gamma_per_us"] / US)

    return planner.LinkBudget(
        budget_a=budget("a"), budget_b=budget("b"),
        tau=pf.get("tau_ns", 123.0) * NS,
        attenuation_db_per_km=pf.get("attenuation_db_per_km", 0.17),
        repetition_period=pf.get("repetition_us", 50.0) * US,
        overhead_fraction=pf.get("overhead_fraction", 0.15),
        herald_prob=pf.get("herald_prob", 2.7e-4),
        read_prob=pf.get("read_prob", 2.48e-4),
        herald_dilution=pf.get("herald_dilution", True),
        include_decay=pf.get("include_decay", True))


def cmd_plan_fiber(cfg: RunConfig, out_dir, config_path) -> None:
    pf = cfg.plan_fiber
    required = [f"{p}_{k}" for p in "ab"
                for k in ("n_th", "p_pump", "n_leak", "n_bg", "gamma_per_us")]
    missing = [k for k in required if k not in pf]
    if missing:
        raise ConfigError([f"[plan.fiber] missing {k}" for k in missing])
    link = _link_from_config(pf)
    floor = pf.get("g2_floor", 7.1)
    tau = link.tau

    def combo(dil, dec):
        return f"dilution={'on' if dil else 'off'},decay={'on' if dec else 'off'}"

    combos = {}
    for dil in (True, False):
        for dec in (True, False):
            combos[combo(dil, dec)] = {
                "arm_a_db": planner.required_added_db(link.budget_a, floor, tau,
                                                      dil, dec),
                "arm_b_db": planner.required_added_db(link.budget_b, floor, tau,
                                                      dil, dec),
            }
    retention = pf.get("contrast_retention", 0.95)
    sep = planner.max_separation(link, retention)
    doc = {
        "g2_baseline_a": planner.degraded_g2(link.budget_a, 0.0, tau,
                                             link.herald_dilution,
                                             link.include_decay),
        "g2_baseline_b": planner.degraded_g2(link.budget_b, 0.0, tau,
                                             link.herald_dilution,
                                             link.include_decay),
        "g2_floor": floor,
        "required_db_combinations": combos,
        "required_db_default": combos[combo(link.herald_dilution,
                                            link.include_decay)],
        "max_separation": dataclasses.asdict(sep),
        "separations": {},
    }
    for km in pf.get("separation_km_list", ()):
        split = planner.split_separation(link, km, retention)
        it = planner.integration_time(link, km,
                                      pf.get("sigma_clearance", 3.0), retention)
        doc["separations"][f"{km:g}"] = {
            "split": dataclasses.asdict(split),
            "integration_days": it.days,
            "trials": it.trials,
            "coincidences": it.coincidences,
            "witness_median": it.witness_median,
            "witness_offgrid_mass": it.witness_offgrid,
        }
    write_json(os.path.join(out_dir, "fiber.json"), doc)

    lines = [
        f"baseline correlations: A {doc['g2_baseline_a']:.2f}, "
        f"B {doc['g2_baseline_b']:.2f}; floor {floor:.2f}",
        f"added loss to floor:   A {doc['required_db_default']['arm_a_db']:.2f} dB, "
        f"B {doc['required_db_default']['arm_b_db']:.2f} dB",
        f"max insertable fiber:  {sep.total_km:.0f} km "
        f"(A {sep.arm_a_km:.0f} km, B {sep.arm_b_km:.0f} km)",
    ]
    for km, entry in doc["separations"].items():
        s = entry["split"]
        lines.append(
            f"separation {km} km: split A {s['arm_a_km']:.0f} / "
            f"B {s['arm_b_km']:.0f} km, {entry['integration_days']:.0f} days "
            f"({entry['coincidences']:.0f} coincidences, witness "
            f"{entry['witness_median']:.2f})")
    atomic_write(os.path.join(out_dir, "fiber.txt"), "\n".join(lines) + "\n")
    _manifest(out_dir, "plan-fiber", config_path, cfg)


def cmd_analyze(cfg: RunConfig, out_dir, config_path) -> None:
    a = cfg.analyze
    if "tally_json" in a:
        with open(a["tally_json"]) as fh:
            tally = stats.CoincidenceTally.loads(fh.read())
    elif "clicklog_csv" in a:
        log = ClickLog.from_csv(a["clicklog_csv"], a.get("clicklog_meta"))
        tally = stats.tally(log)
    else:
        raise ConfigError(["[analyze] needs tally_json or clicklog_csv"])
    doc = _witness_report(tally, _analysis_params(cfg))
    write_json(os.path.join(out_dir, "witness.json"), doc)
    atomic_write(os.path.join(out_dir, "tally.json"), tally.dumps())
    _manifest(out_dir, "analyze", config_path, cfg)


_SUBCOMMANDS = {
    "phase-sweep": cmd_phase_sweep,
    "time-sweep": cmd_time_sweep,
    "witness": cmd_witness,
    "pump-probe": cmd_pump_probe,
    "plan-yield": cmd_plan_yield,
    "plan-fiber": cmd_plan_fiber,
    "analyze": cmd_analyze,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="mechlink",
        description="heralded mechanical-entanglement simulator and analysis")
    ap.add_argument("subcommand", choices=sorted(_SUBCOMMANDS))
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", default="out")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--trials", type=int, default=None)
    args = ap.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.trials is not None:
            cfg.trials = args.trials
        os.makedirs(args.out, exist_ok=True)
        _SUBCOMMANDS[args.subcommand](cfg, args.out, args.config)
    except ConfigError as exc:
        for line in exc.violations:
            print(f"config error: {line}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
