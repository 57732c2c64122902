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


def _witness_report(tally: stats.CoincidenceTally, extras: dict | None = None) -> dict:
    dists = {det: stats.witness_distribution(tally, det) for det in (1, 2)}
    sym = stats.symmetrize(dists[1], dists[2])
    threshold = stats.CLASSICALITY_THRESHOLD
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


def _run_sweep(cfg: RunConfig, out_dir, values, at_value, x_unit):
    """Simulate one campaign per sweep value and write fringe.csv.

    `at_value(protocol, v)` sets the swept parameter; the trials are split
    evenly over the points.  Returns (trials per point, the points'
    models, the sweep table): a record array of one row per point with
    the fields of fringe.csv, its `x` the swept value itself.
    """
    per_point, n = max(1, cfg.trials // len(values)), len(values)
    models, tallies = [], []
    for i, v in enumerate(values):
        models.append(protocol.build_trial_model(at_value(cfg.protocol, v)))
        # a point needs only its counts: no click log is sampled
        tallies.append(stats.tally_from_counts(
            code_counts(models[-1], per_point, cfg.seed, stream=i), per_point))
    # every point's same- and cross-detector intervals in one solve
    estimates = stats.g2_estimates([(t, (1, 2), (1, 2)) for t in tallies]
                                   + [(t, (1, 2), (2, 1)) for t in tallies])
    rows = [(v, same.value, same.lower, same.upper, cross.value, cross.lower, cross.upper,
             0.5 * (m.g2_exact(1, 1) + m.g2_exact(2, 2)),
             0.5 * (m.g2_exact(1, 2) + m.g2_exact(2, 1)))
            for v, m, same, cross in zip(values, models, estimates[:n], estimates[n:])]
    write_csv(os.path.join(out_dir, "fringe.csv"), _FRINGE_HEADER,
              [(v / x_unit, *rest) for v, *rest in rows])
    return per_point, models, np.rec.array(rows, names=_FRINGE_HEADER)


def _difference_fit(table) -> stats.FringeFit:
    """Fringe fit of cross - same over the sweep table's rows, each weighted
    by half the quadrature sum of the two interval widths: the difference
    doubles the fringe amplitude and cancels the common offset, which
    conditions the period fit best."""
    return stats.fit_fringe(
        table.x, table.g2_cross - table.g2_same,
        [0.5 * math.hypot(c, s) for c, s in zip(
            table.g2_cross_err_hi - table.g2_cross_err_lo,
            table.g2_same_err_hi - table.g2_same_err_lo)])


def _window_visibility(table, period) -> dict:
    """`sampled` and `exact` fringe contrast over the rows of a sweep table
    at the sweep's known period: cross- and same-detector correlations
    oscillate half a fringe apart, and each column averages the two."""
    contrast = stats.fringe_contrast(
        table.x, [table.g2_cross, table.g2_same,
                  table.g2_cross_exact, table.g2_same_exact], period)
    return {"sampled": float(np.mean(contrast[:2])),
            "exact": float(np.mean(contrast[2:]))}


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
    problems = cfg.require_simulation()
    if len(phases) < 5:
        problems.append(f"[sweep] phase-sweep needs at least 5 delta_phi_pi_list "
                        f"phases for its period fit, got {len(phases)}")
    if problems:
        raise ConfigError(problems)
    per_point, models, table = _run_sweep(
        cfg, out_dir, phases, lambda p, phi: p.with_delta_phi(phi), PI)

    fit = _difference_fit(table)
    fit_exact = stats.fit_fringe(table.x, table.g2_cross_exact - table.g2_same_exact)
    vis = _window_visibility(table, 2 * PI)
    period, error = _period(fit, PI)
    summary = {
        "points": len(phases),
        "trials_per_point": per_point,
        "period_pi": period,
        "period_pi_exact": _period(fit_exact, PI)[0],
        "period_error_pi": error,
        "flagged": fit.flagged or fit_exact.flagged,
        "visibility_sampled": vis["sampled"],
        "visibility_exact": vis["exact"],
        "herald_probability_exact": models[0].herald_prob(),
    }
    write_json(os.path.join(out_dir, "fringe_fit.json"), summary)
    _manifest(out_dir, "phase-sweep", config_path, cfg, cfg.seed, cfg.trials)


def cmd_time_sweep(cfg: RunConfig, out_dir, config_path) -> None:
    taus = np.array(cfg.tau_sweep)
    # a window is a run of delays at most 6 ns apart
    windows = np.split(np.arange(taus.size), np.flatnonzero(np.diff(taus) > 6e-9) + 1)
    problems = cfg.require_simulation()
    if (taus < 0).any() or (np.diff(taus) <= 0).any():
        problems.append("[sweep] tau_ns_list must be non-negative and strictly increasing")
    else:
        if len(windows[0]) < 5:
            problems.append(f"[sweep] time-sweep needs at least 5 points in its first "
                            f"tau_ns_list window for the period fit, got {len(windows[0])}")
        problems += [f"[sweep] the tau_ns_list window at {taus[idx[0]] / NS:g} ns "
                     f"needs at least 3 points, got {len(idx)}"
                     for idx in windows[1:] if len(idx) < 3]
    if cfg.protocol is not None and cfg.protocol.interferometer.delta_omega_m == 0:
        problems.append("[interferometer] time-sweep needs a non-zero "
                        "mech_freq_diff_mhz: the delay fringe has no period")
    if problems:
        raise ConfigError(problems)
    per_point, _, table = _run_sweep(cfg, out_dir, cfg.tau_sweep,
                                     lambda p, tau: p.with_tau(tau), NS)

    period_tau = 2 * PI / cfg.protocol.interferometer.delta_omega_m
    vis_rows = []
    for idx in windows:
        center = float(np.mean(taus[idx]))
        vis_rows.append({
            "tau_ns": center / NS,
            **_window_visibility(table[idx], period_tau),
            "bound_exact": protocol.exact_visibility_ceiling(cfg.protocol.with_tau(center))})
    write_csv(os.path.join(out_dir, "visibility.csv"),
              ["tau_ns", "v_sampled", "v_exact", "v_bound_exact"],
              [list(row.values()) for row in vis_rows])

    fit = _difference_fit(table[windows[0]])
    period, error = _period(fit, NS)
    summary = {
        "points": len(taus),
        "trials_per_point": per_point,
        "period_ns": period,
        "period_error_ns": error,
        "flagged": fit.flagged,
        "windows": [(taus[idx] / NS).tolist() for idx in windows],
        "visibility": vis_rows,
    }
    write_json(os.path.join(out_dir, "sweep_fit.json"), summary)
    _manifest(out_dir, "time-sweep", config_path, cfg, cfg.seed, cfg.trials)


def _bound(model: protocol.TrialModel, det: int) -> float | None:
    """`witness_from_g2` of the model's exact g2 for heralds at `det`, or
    None where it is undefined (no singles, or no fringe contrast)."""
    try:
        return stats.witness_from_g2(model.g2_exact(1, det), model.g2_exact(2, det))
    except (stats.StatsError, protocol.ProtocolError):
        return None


def _separable_bounds(proto) -> dict:
    """The smallest `_bound` per herald detector over the config's
    separable twins, and whether either lies below
    `stats.CLASSICALITY_THRESHOLD`.

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
        below = below or min(bounds, default=math.inf) < stats.CLASSICALITY_THRESHOLD
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

    exact = {}
    for det in (1, 2):
        try:
            exact[f"moment_ratio_det{det}"] = model.exact_witness(det)
        except protocol.ProtocolError:
            exact[f"moment_ratio_det{det}"] = None
        exact[f"bound_from_exact_g2_det{det}"] = _bound(model, det)
    exact.update(_separable_bounds(cfg.protocol))
    extras = {
        "exact": exact,
        "herald_probability_exact": model.herald_prob(),
        "trials": cfg.trials,
        "seed": cfg.seed,
    }
    doc = _witness_report(tally, extras)
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
    per_chip = {}
    for key, name, default in (("sigma_nm_list", "sigma_nm", 2.0),
                               ("offsets_nm_list", "offsets_nm", 0.0)):
        values = py.get(key, (default,))
        if len(values) not in (1, chips):
            raise ConfigError([f"[plan.yield] {key} needs 1 or {chips} entries"])
        per_chip[name] = values * chips if len(values) == 1 else values
    # a key the section leaves out takes the planner's default
    model = planner.YieldModel(
        chips=chips, devices_per_chip=py.get("devices_per_chip", 234), **per_chip,
        **{k: py[k] for k in ("window_mhz", "carrier_nm") if k in py})
    est = planner.multi_chip_yield(
        model, **{k: py[k] for k in ("mc_reps", "seed") if k in py})
    doc = {
        "chips": chips,
        "devices_per_chip": model.devices_per_chip,
        "window_nm": model.window_nm,
        "analytic": est.analytic,
        "monte_carlo": est.monte_carlo,
        "monte_carlo_se": est.monte_carlo_se,
        "tuple_match_probability": est.pair_probability,
        "mc_reps": est.mc_reps,
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

    # the section's link and target keys are LinkBudget's fields, two of them
    # with a unit suffix; a key the section leaves out takes LinkBudget's default
    link = {f.name: pf[f.name] for f in dataclasses.fields(planner.LinkBudget)
            if f.name in pf}
    for key, name, unit in (("tau_ns", "tau", NS),
                            ("repetition_us", "repetition_period", US)):
        if key in pf:
            link[name] = pf[key] * unit
    return planner.LinkBudget(budget_a=budget("a"), budget_b=budget("b"), **link)


def cmd_plan_fiber(cfg: RunConfig, out_dir, config_path) -> None:
    pf = cfg.plan_fiber
    required = [f"{p}_{k}" for p in "ab"
                for k in ("n_th", "p_pump", "n_leak", "n_bg", "gamma_per_us")]
    missing = [k for k in required if k not in pf]
    if missing:
        raise ConfigError([f"[plan.fiber] missing {k}" for k in missing])
    link = _link_from_config(pf)
    sep = planner.max_separation(link)
    doc = {
        "g2_baseline_a": planner.degraded_g2(link.budget_a, 0.0, link.tau),
        "g2_baseline_b": planner.degraded_g2(link.budget_b, 0.0, link.tau),
        "max_separation": dataclasses.asdict(sep),
        "separations": {},
    }
    # each separation's solve starts from the previous one's root
    it = None
    for km in pf.get("separation_km_list", ()):
        split = planner.split_separation(link, km)
        it = planner.integration_time(link, km, it)
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
        f"B {doc['g2_baseline_b']:.2f}; floor {sep.g2_floor:.2f}",
        f"added loss to floor:   A {sep.arm_a_db:.2f} dB, B {sep.arm_b_db:.2f} dB",
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
        log = ClickLog.from_csv(a["clicklog_csv"], a["clicklog_meta"])
        tally = stats.tally(log)
    else:
        raise ConfigError(["[analyze] needs tally_json or clicklog_csv"])
    doc = _witness_report(tally)
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
