"""repro — a reproduction of "Mega Data Center for Elastic Internet
Applications" (Qian & Rabinovich, IPPS 2014).

The public API in one import::

    from repro import MegaDataCenter, PlatformConfig, WorkloadBuilder, RngHub

Subpackage guide:

* :mod:`repro.core` — the paper's architecture (pods, global manager,
  VIP/RIP manager, the six knobs, the two-layer variant).
* :mod:`repro.sim` — the discrete-event kernel the object model runs on.
* :mod:`repro.network`, :mod:`repro.dns`, :mod:`repro.lbswitch`,
  :mod:`repro.hosts`, :mod:`repro.workload`, :mod:`repro.placement` —
  the substrates.  The fabric is not modelled: Section III-B's flat
  address space is a premise.
* :mod:`repro.experiments` — experiments E1–E12, ablations, extensions.
"""

from repro.core import MegaDataCenter, PlatformConfig
from repro.sim import Environment, RngHub
from repro.workload import WorkloadBuilder

__version__ = "1.0.0"

__all__ = [
    "MegaDataCenter",
    "PlatformConfig",
    "Environment",
    "RngHub",
    "WorkloadBuilder",
    "__version__",
]
