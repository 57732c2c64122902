"""Declarative run configuration: sectioned key=value files.

Keys carry unit suffixes (`tau_ns`, `gamma_per_us`, `delta_phi_pi`);
unknown sections or keys are rejected, duplicate keys are a parse error,
and validation collects every violation instead of stopping at the
first.  All randomness flows from the single `seed` key, which is
mandatory for simulation subcommands.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field

from .devices import (ConfigInvariantError, DetectorModel, DeviceParams,
                      InterferometerConfig, ProtocolConfig)

US = 1e-6
NS = 1e-9
PI = math.pi


class ConfigError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_float_list(text: str) -> tuple:
    items = [s.strip() for s in text.split(",") if s.strip()]
    return tuple(float(s) for s in items)


_DEVICE_KEYS = {
    "omega_m_ghz": float, "gamma_per_us": float, "bath_k_per_us": float,
    "bath_gamma_per_us": float, "n_init": float, "n_start": float,
    "p_pump": float, "p_read": float, "eta_path": float, "n_leak": float,
    "wavelength_nm": float, "q_factor": float, "g0_khz": float,
}

_SCHEMA = {
    "device.A": _DEVICE_KEYS,
    "device.B": _DEVICE_KEYS,
    "interferometer": {
        "phi0_rad": float, "delta_phi_pi": float, "mech_freq_diff_mhz": float,
        "splitter_deviation": float, "balance_attenuation": float,
        "balance_arm": str, "phase_jitter_sigma_rad": float,
        "serrodyne": _parse_bool, "envelope_sigma_ns": float,
    },
    "detectors": {
        "eta_1": float, "eta_2": float,
        "p_dark_pump_1": float, "p_dark_pump_2": float,
        "p_dark_read_1": float, "p_dark_read_2": float,
        "leak_pump_scale": float, "read_eta_scale": float,
    },
    "protocol": {
        "tau_ns": float,
    },
    "campaign": {"trials": int, "seed": int},
    "analysis": {
        "witness_grid_step": float, "classicality_threshold": float,
        "flux_imbalance": float,
    },
    "sweep": {"delta_phi_pi_list": _parse_float_list,
              "tau_ns_list": _parse_float_list},
    "pump_probe": {
        "data_csv": str, "seed": int, "noise_fraction": float,
        "gamma_per_us": float, "bath_gamma_per_us": float,
        "amplitude_fast": float, "amplitude_rise": float, "offset": float,
        "t_max_us": float, "samples": int,
    },
    "plan.yield": {
        "chips": int, "devices_per_chip": int, "sigma_nm_list": _parse_float_list,
        "offsets_nm_list": _parse_float_list, "window_mhz": float,
        "carrier_nm": float, "mc_reps": int, "seed": int,
    },
    "plan.fiber": {
        "a_n_th": float, "a_p_pump": float, "a_n_leak": float, "a_n_bg": float,
        "a_gamma_per_us": float,
        "b_n_th": float, "b_p_pump": float, "b_n_leak": float, "b_n_bg": float,
        "b_gamma_per_us": float,
        "tau_ns": float, "attenuation_db_per_km": float, "repetition_us": float,
        "overhead_fraction": float, "herald_prob": float, "read_prob": float,
        "contrast_retention": float, "separation_km_list": _parse_float_list,
        "sigma_clearance": float, "herald_dilution": _parse_bool,
        "include_decay": _parse_bool, "g2_floor": float,
    },
    "analyze": {"tally_json": str, "clicklog_csv": str, "clicklog_meta": str},
    "output": {"save_clicklog": _parse_bool},
}

_SIM_SECTIONS = ("device.A", "device.B", "interferometer", "detectors",
                 "protocol", "campaign")


@dataclass
class RunConfig:
    """Validated experiment description plus subcommand-specific blocks."""

    raw: dict
    protocol: ProtocolConfig | None = None
    trials: int | None = None
    seed: int | None = None
    delta_phi_sweep: tuple = ()
    tau_sweep: tuple = ()
    analysis: dict = field(default_factory=dict)
    pump_probe: dict = field(default_factory=dict)
    plan_yield: dict = field(default_factory=dict)
    plan_fiber: dict = field(default_factory=dict)
    analyze: dict = field(default_factory=dict)
    save_clicklog: bool | None = None

    def snapshot(self) -> dict:
        """Plain (section -> key -> string) echo of the parsed file."""
        return {s: dict(kv) for s, kv in self.raw.items()}

    def require_simulation(self) -> list:
        problems = []
        if self.protocol is None:
            problems.append("simulation sections missing (device/interferometer/"
                            "detectors/protocol)")
        if self.seed is None:
            problems.append("campaign.seed is required for simulation runs")
        if self.trials is None:
            problems.append("campaign.trials is required for simulation runs")
        return problems


def _typed(section: str, key: str, text: str, caster, problems: list):
    try:
        return caster(text)
    except (ValueError, TypeError) as exc:
        problems.append(f"[{section}] {key}: {exc}")
        return None


def _build_device(values: dict, problems: list, label: str):
    kwargs = {}
    mapping = {
        "omega_m_ghz": ("omega_m", lambda v: 2 * PI * v * 1e9),
        "gamma_per_us": ("gamma_decay", lambda v: v / US),
        "bath_k_per_us": ("bath_k", lambda v: v / US),
        "bath_gamma_per_us": ("bath_gamma", lambda v: v / US),
        "n_init": ("n_init", float), "n_start": ("n_start", float),
        "p_pump": ("p_pump", float), "p_read": ("p_read", float),
        "eta_path": ("eta_path", float), "n_leak": ("n_leak", float),
        "wavelength_nm": ("wavelength_nm", float),
        "q_factor": ("q_factor", float),
        "g0_khz": ("g0", lambda v: 2 * PI * v * 1e3),
    }
    for key, value in values.items():
        name, conv = mapping[key]
        kwargs[name] = conv(value)
    try:
        return DeviceParams(**kwargs)
    except ConfigInvariantError as exc:
        problems.extend(f"[device.{label}] {v}" for v in str(exc).split("; "))
        return None


def _build_interferometer(values: dict, problems: list):
    kwargs = {}
    for key, value in values.items():
        if key == "phi0_rad":
            kwargs["phi0"] = value
        elif key == "delta_phi_pi":
            kwargs["delta_phi"] = value * PI
        elif key == "mech_freq_diff_mhz":
            kwargs["delta_omega_m"] = 2 * PI * value * 1e6
        elif key == "phase_jitter_sigma_rad":
            kwargs["phase_jitter_sigma"] = value
        else:
            kwargs[key] = value
    try:
        return InterferometerConfig(**kwargs)
    except ConfigInvariantError as exc:
        problems.extend(f"[interferometer] {v}" for v in str(exc).split("; "))
        return None


def _build_detectors(values: dict, problems: list):
    kwargs = {
        "eta": (values.pop("eta_1", 1.0), values.pop("eta_2", 1.0)),
        "p_dark_pump": (values.pop("p_dark_pump_1", 0.0),
                        values.pop("p_dark_pump_2", 0.0)),
        "p_dark_read": (values.pop("p_dark_read_1", 0.0),
                        values.pop("p_dark_read_2", 0.0)),
    }
    kwargs.update(values)
    try:
        return DetectorModel(**kwargs)
    except ConfigInvariantError as exc:
        problems.extend(f"[detectors] {v}" for v in str(exc).split("; "))
        return None


def parse_config(path) -> RunConfig:
    """Parse and validate; raises ConfigError listing every violation."""
    parser = configparser.ConfigParser(strict=True, interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError([f"cannot read config: {exc}"])
    except configparser.Error as exc:
        raise ConfigError([f"malformed config: {exc}"])

    problems = []
    values: dict = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            problems.append(f"unknown section [{section}]")
            continue
        schema = _SCHEMA[section]
        values[section] = {}
        for key, text in parser.items(section):
            if key not in schema:
                problems.append(f"unknown key [{section}] {key}")
                continue
            parsed = _typed(section, key, text, schema[key], problems)
            if parsed is not None:
                values[section][key] = parsed

    cfg = RunConfig(raw={s: dict(parser.items(s)) for s in parser.sections()})

    sim_present = any(s in values for s in _SIM_SECTIONS)
    if sim_present:
        dev_a = _build_device(values.get("device.A", {}), problems, "A")
        dev_b = _build_device(values.get("device.B", {}), problems, "B")
        intf = _build_interferometer(dict(values.get("interferometer", {})), problems)
        dets = _build_detectors(dict(values.get("detectors", {})), problems)
        proto = values.get("protocol", {})
        if None not in (dev_a, dev_b, intf, dets):
            kwargs = {}
            if "tau_ns" in proto:
                kwargs["tau"] = proto["tau_ns"] * NS
            try:
                cfg.protocol = ProtocolConfig(device_a=dev_a, device_b=dev_b,
                                              interferometer=intf, detectors=dets,
                                              **kwargs)
            except ConfigInvariantError as exc:
                problems.extend(str(exc).split("; "))

    camp = values.get("campaign", {})
    cfg.trials = camp.get("trials")
    cfg.seed = camp.get("seed")
    if cfg.trials is not None and cfg.trials < 1:
        problems.append("[campaign] trials must be at least 1")

    sweep = values.get("sweep", {})
    cfg.delta_phi_sweep = tuple(v * PI for v in sweep.get("delta_phi_pi_list", ()))
    cfg.tau_sweep = tuple(v * NS for v in sweep.get("tau_ns_list", ()))

    cfg.analysis = dict(values.get("analysis", {}))
    cfg.pump_probe = dict(values.get("pump_probe", {}))
    cfg.plan_yield = dict(values.get("plan.yield", {}))
    cfg.plan_fiber = dict(values.get("plan.fiber", {}))
    cfg.analyze = dict(values.get("analyze", {}))
    cfg.save_clicklog = values.get("output", {}).get("save_clicklog")

    # path-valued keys resolve relative to the config file itself
    base = os.path.dirname(os.path.abspath(path))
    for section, key in (("analyze", "tally_json"), ("analyze", "clicklog_csv"),
                         ("analyze", "clicklog_meta"), ("pump_probe", "data_csv")):
        block = getattr(cfg, section.replace(".", "_"))
        if key in block and not os.path.isabs(block[key]):
            block[key] = os.path.normpath(os.path.join(base, block[key]))

    if "plan.yield" in values:
        py = values["plan.yield"]
        chips = py.get("chips", 2)
        for key in ("sigma_nm_list", "offsets_nm_list"):
            if key in py and len(py[key]) not in (1, chips):
                problems.append(f"[plan.yield] {key} needs 1 or {chips} entries")

    if problems:
        raise ConfigError(problems)
    return cfg
