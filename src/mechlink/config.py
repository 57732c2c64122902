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


def _per_us(v: float) -> float:
    return v / US


# key -> (caster, field, unit) per simulation section: the field of the
# section's dataclass that the key sets, and the conversion from the key's
# unit to the field's (None: the same unit).  A conversion keeps its own
# arithmetic: 0.172414 / US and 0.172414 * 1e6 differ in the last bit.
_DEVICE = {
    "gamma_per_us": (float, "gamma_decay", _per_us),
    "bath_k_per_us": (float, "bath_k", _per_us),
    "bath_gamma_per_us": (float, "bath_gamma", _per_us),
    "n_init": (float, "n_init", None),
    "n_start": (float, "n_start", None),
    "p_pump": (float, "p_pump", None),
    "p_read": (float, "p_read", None),
    "eta_path": (float, "eta_path", None),
    "n_leak": (float, "n_leak", None),
}
_INTERFEROMETER = {
    "phi0_rad": (float, "phi0", None),
    "delta_phi_pi": (float, "delta_phi", lambda v: v * PI),
    # the one source of the devices' frequency difference
    "mech_freq_diff_mhz": (float, "delta_omega_m", lambda v: 2 * PI * v * 1e6),
    "splitter_deviation": (float, "splitter_deviation", None),
    "phase_jitter_sigma_rad": (float, "phase_jitter_sigma", None),
    "serrodyne": (_parse_bool, "serrodyne", None),
    "envelope_sigma_ns": (float, "envelope_sigma_ns", None),
}
_DETECTORS = {
    "leak_pump_scale": (float, "leak_pump_scale", None),
    "read_eta_scale": (float, "read_eta_scale", None),
}
# DetectorModel's per-detector pairs: `eta_1` and `eta_2` set `eta`, and so on
_DETECTOR_PAIRS = ("eta", "p_dark_pump", "p_dark_read")
_PROTOCOL = {"tau_ns": (float, "tau", lambda v: v * NS)}


def _casters(table: dict) -> dict:
    return {key: caster for key, (caster, _, _) in table.items()}


_SCHEMA = {
    "device.A": _casters(_DEVICE),
    "device.B": _casters(_DEVICE),
    "interferometer": _casters(_INTERFEROMETER),
    "detectors": {**_casters(_DETECTORS),
                  **{f"{name}_{i}": float for name in _DETECTOR_PAIRS
                     for i in (1, 2)}},
    "protocol": _casters(_PROTOCOL),
    "campaign": {"trials": int, "seed": int},
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
        "sigma_clearance": float,
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
        elif self.trials < 1:
            problems.append("[campaign] trials must be at least 1")
        return problems


def _typed(section: str, key: str, text: str, caster, problems: list):
    try:
        return caster(text)
    except (ValueError, TypeError) as exc:
        problems.append(f"[{section}] {key}: {exc}")
        return None


def _build(cls, table: dict, values: dict, problems: list, section: str,
           **kwargs):
    """`cls` from a section's parsed values through its key table, or None
    with the section's invariant violations added to `problems`."""
    for key, value in values.items():
        _, name, unit = table[key]
        kwargs[name] = value if unit is None else unit(value)
    try:
        return cls(**kwargs)
    except ConfigInvariantError as exc:
        problems.extend(f"[{section}] {v}" for v in str(exc).split("; "))
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
        dev_a = _build(DeviceParams, _DEVICE, values.get("device.A", {}),
                       problems, "device.A")
        dev_b = _build(DeviceParams, _DEVICE, values.get("device.B", {}),
                       problems, "device.B")
        intf = _build(InterferometerConfig, _INTERFEROMETER,
                      values.get("interferometer", {}), problems, "interferometer")
        det = dict(values.get("detectors", {}))
        defaults = DetectorModel()
        pairs = {name: tuple(det.pop(f"{name}_{i}", getattr(defaults, name)[i - 1])
                             for i in (1, 2)) for name in _DETECTOR_PAIRS}
        dets = _build(DetectorModel, _DETECTORS, det, problems, "detectors", **pairs)
        if None not in (dev_a, dev_b, intf, dets):
            cfg.protocol = _build(ProtocolConfig, _PROTOCOL,
                                  values.get("protocol", {}), problems, "protocol",
                                  device_a=dev_a, device_b=dev_b,
                                  interferometer=intf, detectors=dets)

    camp = values.get("campaign", {})
    cfg.trials = camp.get("trials")
    cfg.seed = camp.get("seed")

    sweep = values.get("sweep", {})
    cfg.delta_phi_sweep = tuple(v * PI for v in sweep.get("delta_phi_pi_list", ()))
    cfg.tau_sweep = tuple(v * NS for v in sweep.get("tau_ns_list", ()))

    cfg.pump_probe = dict(values.get("pump_probe", {}))
    cfg.plan_yield = dict(values.get("plan.yield", {}))
    cfg.plan_fiber = dict(values.get("plan.fiber", {}))
    cfg.analyze = dict(values.get("analyze", {}))
    if "clicklog_csv" in cfg.analyze and "clicklog_meta" not in cfg.analyze:
        problems.append("[analyze] clicklog_csv needs clicklog_meta (its trial count)")
    cfg.save_clicklog = values.get("output", {}).get("save_clicklog")

    # path-valued keys resolve relative to the config file itself
    base = os.path.dirname(os.path.abspath(path))
    for section, key in (("analyze", "tally_json"), ("analyze", "clicklog_csv"),
                         ("analyze", "clicklog_meta"), ("pump_probe", "data_csv")):
        block = getattr(cfg, section.replace(".", "_"))
        if key in block and not os.path.isabs(block[key]):
            block[key] = os.path.normpath(os.path.join(base, block[key]))

    if problems:
        raise ConfigError(problems)
    return cfg
