"""mechlink: heralded entanglement between remote mechanical oscillators.

Simulation of the pump / herald / readout protocol on exact Gaussian
states, the matching photon-counting statistics (second-order
coherences, entanglement witness, confidence levels), the heating and
decay noise model, and planning tools for device yield and fiber links.
"""

__version__ = "0.1.0"

from .devices import (DetectorModel, DeviceParams, InterferometerConfig,
                      ProtocolConfig)

__all__ = [
    "DetectorModel",
    "DeviceParams",
    "InterferometerConfig",
    "ProtocolConfig",
    "__version__",
]
