"""Experiment description: devices, interferometer, detectors.

All dataclasses validate on construction and also expose `violations()`
so the config layer can collect every problem in one pass instead of
failing on the first.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


class ConfigInvariantError(ValueError):
    pass


def _check(obj) -> None:
    problems = obj.violations()
    if problems:
        raise ConfigInvariantError("; ".join(problems))


@dataclass(frozen=True)
class DeviceParams:
    """Physics of one optomechanical device.

    Rates are per second, occupations are phonon numbers.  `n_leak` is
    the leaked-drive count rate per detected phonon, the normalization
    used throughout the counting analysis.  A device carries no
    mechanical frequency of its own: only the two devices' difference
    enters the model, as `InterferometerConfig.delta_omega_m`.
    """

    gamma_decay: float = 1 / 4.0e-6                  # energy decay rate, 1/s
    bath_k: float = 0.0                              # transient-bath coupling, phonons/s
    bath_gamma: float = 1 / 0.5e-6                   # transient-bath decay, 1/s
    n_init: float = 0.0                              # equilibrium occupation
    p_pump: float = 0.007                            # pair-creation probability per pump pulse
    p_read: float = 0.034                            # state-swap probability per read pulse
    eta_path: float = 1.0                            # device-to-combiner efficiency
    n_leak: float = 0.0                              # leaked-pump counts per detected phonon
    n_start: float | None = None                     # occupation at pump time (default n_init)

    def __post_init__(self):
        _check(self)

    def violations(self) -> list:
        out = []
        for name in ("gamma_decay", "bath_k", "bath_gamma", "n_init", "n_leak"):
            if getattr(self, name) < 0:
                out.append(f"{name} must be non-negative")
        for name in ("p_pump", "p_read", "eta_path"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                out.append(f"{name}={v} outside [0, 1]")
        if self.p_pump > 0.05:
            out.append(f"p_pump={self.p_pump} above the 0.05 model-validity guard")
        if self.n_start is not None and self.n_start < 0:
            out.append("n_start must be non-negative")
        return out

    @property
    def start_occupation(self) -> float:
        return self.n_init if self.n_start is None else self.n_start


@dataclass(frozen=True)
class InterferometerConfig:
    phi0: float = 0.0                    # locked interferometer phase, rad
    delta_phi: float = 0.0               # read-pulse phase offset, rad
    delta_omega_m: float = 2 * 3.141592653589793 * 45e6  # mech frequency difference, rad/s
    splitter_deviation: float = 0.0      # combiner imbalance, fraction of 50/50
    phase_jitter_sigma: float = 0.0      # residual lock noise per trial, rad
    serrodyne: bool = True               # drive-frequency compensation on/off
    envelope_sigma_ns: float = 40.0      # rms photon envelope, for the overlap penalty

    def __post_init__(self):
        _check(self)

    def violations(self) -> list:
        out = []
        if not 0.0 <= self.splitter_deviation <= 0.1:
            out.append(f"splitter_deviation={self.splitter_deviation} outside [0, 0.1]")
        if self.phase_jitter_sigma < 0:
            out.append("phase_jitter_sigma must be non-negative")
        if self.envelope_sigma_ns <= 0:
            out.append("envelope_sigma_ns must be positive")
        return out

    @property
    def combiner_transmittance(self) -> float:
        return 0.5 * (1.0 + self.splitter_deviation)


@dataclass(frozen=True)
class DetectorModel:
    """Two threshold detectors with window-level false-positive rates.

    `p_dark_*` are absolute false-click probabilities per gating window
    (dark counts plus stray background).  The leaked-drive contribution
    is configured per device through `n_leak` and scaled into the pump
    window by `leak_pump_scale` (pump/read pulse-energy ratio).
    `read_eta_scale` is the read-to-pump window throughput ratio; the
    published aggregate rates constrain the two windows differently and
    only their product with the path budget is known.
    """

    eta: tuple = (1.0, 1.0)
    p_dark_pump: tuple = (0.0, 0.0)
    p_dark_read: tuple = (0.0, 0.0)
    leak_pump_scale: float = 0.2
    read_eta_scale: float = 1.0

    def __post_init__(self):
        _check(self)

    def violations(self) -> list:
        out = []
        if len(self.eta) != 2 or len(self.p_dark_pump) != 2 or len(self.p_dark_read) != 2:
            return ["detector model needs exactly two detectors"]
        for e in self.eta:
            if not 0.0 <= e <= 1.0:
                out.append(f"detector efficiency {e} outside [0, 1]")
        for p in (*self.p_dark_pump, *self.p_dark_read):
            if not 0.0 <= p <= 1e-2:
                out.append(f"p_dark={p} outside [0, 1e-2]")
        if self.leak_pump_scale < 0:
            out.append("leak_pump_scale must be non-negative")
        if self.read_eta_scale <= 0:
            out.append("read_eta_scale must be positive")
        for e in self.eta:
            if e * max(self.read_eta_scale, 1.0) > 1.0 + 1e-12:
                out.append("read-window efficiency exceeds 1")
        return out

    def read_eta(self, detector: int) -> float:
        return self.eta[detector] * self.read_eta_scale


@dataclass(frozen=True)
class ProtocolConfig:
    device_a: DeviceParams = field(default_factory=DeviceParams)
    device_b: DeviceParams = field(default_factory=DeviceParams)
    interferometer: InterferometerConfig = field(default_factory=InterferometerConfig)
    detectors: DetectorModel = field(default_factory=DetectorModel)
    tau: float = 123e-9                  # pump-to-read delay, s

    def __post_init__(self):
        _check(self)

    def violations(self) -> list:
        # each part is frozen and checked its own fields when it was built
        return ["tau must be non-negative"] if self.tau < 0 else []

    def devices(self) -> tuple:
        return (self.device_a, self.device_b)

    def with_delta_phi(self, delta_phi: float) -> "ProtocolConfig":
        intf = replace(self.interferometer, delta_phi=delta_phi)
        return replace(self, interferometer=intf)

    def with_tau(self, tau: float) -> "ProtocolConfig":
        return replace(self, tau=tau)
